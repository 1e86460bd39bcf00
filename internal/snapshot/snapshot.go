// Package snapshot is the versioned, checksummed binary container for the
// complete simulator state, enabling crash-safe checkpoint/resume of long
// runs (the ROADMAP's time-slab sharding prerequisite).
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "MCRSNAP1"
//	8       4     format version (Version)
//	12      n     payload
//	12+n    8     payload length n
//	20+n    8     CRC64-ECMA of the payload
//
// and the payload:
//
//	8       row section length r
//	r       Integrity.Rows, packed as the checker exports it (integrity.RowSet)
//	8       event section length e
//	e       Trace.Buf, packed by the ring itself (obs.Ring)
//	rest    encoding/gob of State with those two arrays nil
//
// gob carries the small, irregular state field by field; the two arrays
// that are nearly all of the bytes are raw sections ahead of it. Encode
// streams all of it to its writer — the ring packs itself through a fixed
// scratch buffer, the checksum and length accumulate as the bytes pass —
// so nothing the size of the ring or of the payload is allocated on the
// way, which is why the length and checksum trail the payload.
//
// The checksum is verified before any section is decoded, so corrupted or
// truncated files surface as typed errors (ErrBadMagic, ErrVersion,
// ErrTruncated, ErrChecksum, ErrCorrupt) — never panics and never a gob
// decoder running over garbage. Files are written atomically: payload to
// a temp file in the destination directory, fsync, then rename, so a
// crash mid-write leaves either the previous snapshot or none, never a
// torn one.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"repro/internal/controller"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/integrity"
	"repro/internal/obs"
)

// Version is the snapshot format version; Decode rejects any other. It
// must change whenever the payload's type layout does: gob decodes a
// payload of another layout without complaint, leaving every field it
// does not find zero. (1: a mirror type per component; 2: the
// components' own element types; 3: integrity rows and trace events packed;
// 4: both streamed as raw sections, 32-byte trace events, trailing length
// and checksum.)
const Version = 4

// magic identifies a snapshot file.
const magic = "MCRSNAP1"

// headerSize is the envelope prefix before the payload, trailerSize the
// suffix after it.
const (
	headerSize  = len(magic) + 4
	trailerSize = 8 + 8
)

// maxPayload bounds the payload length a decoder will believe, so a
// corrupted length field cannot drive a huge allocation.
const maxPayload = 1 << 31

// Typed decode failures. Callers distinguish "not a snapshot at all"
// (ErrBadMagic), "a snapshot from another format revision" (ErrVersion),
// "cut short" (ErrTruncated) and "bit-rotted" (ErrChecksum, ErrCorrupt).
var (
	ErrBadMagic  = errors.New("snapshot: bad magic (not a snapshot file)")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrTruncated = errors.New("snapshot: truncated file")
	ErrChecksum  = errors.New("snapshot: checksum mismatch (corrupted file)")
	ErrCorrupt   = errors.New("snapshot: corrupted payload")
)

// ErrConfigMismatch marks a structurally valid snapshot whose recorded
// configuration differs from the one the caller is restoring into.
var ErrConfigMismatch = errors.New("snapshot: configuration does not match the checkpointed run")

// crcTable is the ECMA polynomial table shared by encode and decode.
var crcTable = crc64.MakeTable(crc64.ECMA)

// GovernorState is the mode governor's ladder position (present only when
// the resilience policy built one).
type GovernorState struct {
	Pos        int
	Violations int
}

// ResilienceStats summarizes the degradation path of one run. It is
// sim.ResilienceStats, declared here because the running counters are
// checkpointed as they stand and this package cannot import sim.
type ResilienceStats struct {
	// ECCEvents counts distinct failing cells detected (first violation
	// per bank/row); QuarantinedRows counts rows demoted to 1x;
	// Downgrades counts mode-ladder relaxes the policy requested.
	ECCEvents       int
	QuarantinedRows int
	Downgrades      int
	// InitialMode/FinalMode are the device mode labels at start and end.
	InitialMode, FinalMode string
	// FirstErrorMs is the time of the first ECC event (0 when clean);
	// MTBFMs is elapsed time over ECC events (0 when clean) — the run's
	// observed mean time between failures.
	FirstErrorMs float64
	MTBFMs       float64
}

// ResilienceState is the graceful-degradation policy's mutable state. sim
// holds one live: Processed and Stats are the policy's working values.
type ResilienceState struct {
	// Seen is the deduped (bank, row) ECC-event set, sorted, and Governor
	// the mode governor's position: the serialised forms of a map and an
	// mcr.Governor, filled in on the exported copy only.
	Seen     [][2]int
	Governor *GovernorState

	// Processed is the violation-consumption cursor into the integrity
	// checker's list.
	Processed int
	// Stats are the running counters. FinalMode and MTBFMs stay zero until
	// the run finishes: both are computed there from the device and the
	// counters.
	Stats ResilienceStats
}

// Histogram is the data of the sim-layer read-latency histogram
// (sim.LatencyHistogram is this type plus the statistics). N and SumNS
// are the running count and sum; they are kept out of the JSON of
// sim.Result, which predates their being exported for gob.
type Histogram struct {
	// BoundsNS are the inclusive upper bounds of each bucket; the final
	// implicit bucket is overflow.
	BoundsNS []float64
	Counts   []int64
	N        int64   `json:"-"`
	SumNS    float64 `json:"-"`
}

// LoopState is the mutable state of the main cycle loop: power
// accounting, warmup tracking, the in-flight completion heap (raw array,
// so pop order among equal keys is preserved) and the CPU-domain clock.
// sim's loop embeds one and works on it directly, so a field added here
// is checkpointed without further code.
type LoopState struct {
	IdleStreak []int
	Pending    []controller.Completion
	Hist       *Histogram

	ActiveCyc, StandbyCyc, PDCyc int64
	TotalReadLatency             int64
	Reads                        int64
	// Warmup handling: read stats start counting once every core retired
	// its warmup budget; WarmStart records the memory cycle that happened.
	WarmStart int64
	Warmed    bool
	CPUCycle  int64

	// SkippedCycles counts the memory cycles the event-driven engine
	// replayed in closed form instead of stepping (0 under Stepped).
	SkippedCycles int64
}

// State is the complete simulator state at one quiescent cycle boundary.
type State struct {
	// ConfigJSON is the canonical JSON of the run's sim.Config; Restore
	// refuses a snapshot whose configuration differs from the caller's.
	ConfigJSON []byte
	// NextCycle is the memory cycle the restored loop resumes at.
	NextCycle int64

	Device     dram.State
	Controller controller.State
	Cores      []cpu.State
	Integrity  *integrity.State
	Resilience *ResilienceState
	Obs        *obs.Snapshot
	Trace      *obs.TracerState
	Loop       LoopState
}

// Encode streams the envelope and payload for st to w.
func Encode(w io.Writer, st *State) error {
	if st == nil {
		return fmt.Errorf("snapshot: nil state")
	}
	// The two arrays leave the gob-encoded copy: they go ahead of it raw.
	rest := *st
	var rows integrity.RowSet
	var ring obs.Ring
	if st.Integrity != nil {
		in := *st.Integrity
		rows, in.Rows = in.Rows, nil
		rest.Integrity = &in
	}
	if st.Trace != nil {
		tr := *st.Trace
		ring, tr.Buf = tr.Buf, nil
		rest.Trace = &tr
	}
	// A section is length-prefixed, so the ring is packed twice: once to
	// count its bytes (io.Discard cannot fail), once to write them.
	// Packing is cheap; holding the packed ring is what streaming avoids.
	ringLen, _ := ring.WriteTo(io.Discard)

	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	pw := &payloadWriter{w: w}
	pw.u64(uint64(len(rows)))
	pw.Write(rows)
	pw.u64(uint64(ringLen))
	ring.WriteTo(pw)
	if err := gob.NewEncoder(pw).Encode(&rest); err != nil && pw.err == nil {
		return fmt.Errorf("snapshot: encoding payload: %w", err)
	}
	if pw.err != nil {
		return fmt.Errorf("snapshot: writing payload: %w", pw.err)
	}
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[:], pw.n)
	binary.LittleEndian.PutUint64(tr[8:], pw.crc)
	if _, err := w.Write(tr[:]); err != nil {
		return fmt.Errorf("snapshot: writing trailer: %w", err)
	}
	return nil
}

// payloadWriter passes the payload on to w, counting and checksumming it.
// Its first error sticks: every later write is dropped and Encode reports
// the error once.
type payloadWriter struct {
	w       io.Writer
	n, crc  uint64
	err     error
	scratch [8]byte
}

// Write implements io.Writer.
func (p *payloadWriter) Write(b []byte) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	m, err := p.w.Write(b)
	p.n, p.crc, p.err = p.n+uint64(m), crc64.Update(p.crc, crcTable, b[:m]), err
	return m, err
}

// u64 writes a section length.
func (p *payloadWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(p.scratch[:], v)
	p.Write(p.scratch[:])
}

// Decode reads one snapshot from r, verifying magic, version, length and
// checksum before the payload is unmarshalled. All failures are typed
// errors.
func Decode(r io.Reader) (*State, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	body, err := io.ReadAll(io.LimitReader(r, maxPayload+trailerSize+1))
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if len(body) < trailerSize {
		return nil, fmt.Errorf("%w: %d bytes after the header, no room for the trailer", ErrTruncated, len(body))
	}
	payload, tr := body[:len(body)-trailerSize], body[len(body)-trailerSize:]
	switch n := binary.LittleEndian.Uint64(tr); {
	case n > maxPayload:
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	case n > uint64(len(payload)):
		return nil, fmt.Errorf("%w: payload of %d bytes, %d present", ErrTruncated, n, len(payload))
	case n < uint64(len(payload)):
		return nil, fmt.Errorf("%w: %d bytes past a payload of %d", ErrCorrupt, uint64(len(payload))-n, n)
	}
	if crc64.Checksum(payload, crcTable) != binary.LittleEndian.Uint64(tr[8:]) {
		return nil, ErrChecksum
	}
	// The checksum passed, so a failure below is an encoder/decoder schema
	// skew (e.g. a hand-built payload), not bit rot — still a typed error.
	rows, payload, ok := section(payload)
	events, payload, ok2 := section(payload)
	if !ok || !ok2 {
		return nil, fmt.Errorf("%w: a section runs past the payload", ErrCorrupt)
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(rows) > 0 {
		if st.Integrity == nil {
			return nil, fmt.Errorf("%w: shadowed rows but no integrity state", ErrCorrupt)
		}
		st.Integrity.Rows = rows
	}
	if len(events) > 0 {
		if st.Trace == nil {
			return nil, fmt.Errorf("%w: trace events but no tracer state", ErrCorrupt)
		}
		if err := st.Trace.Buf.UnmarshalBinary(events); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return &st, nil
}

// section splits a length-prefixed section off the front of p (nil when
// empty, as gob would have left it).
func section(p []byte) (sec, rest []byte, ok bool) {
	if len(p) < 8 {
		return nil, nil, false
	}
	n, p := binary.LittleEndian.Uint64(p), p[8:]
	if n > uint64(len(p)) {
		return nil, nil, false
	}
	if n == 0 {
		return nil, p, true
	}
	return p[:n:n], p[n:], true
}

// WriteFile atomically persists st at path: encode to a temp file in the
// same directory, fsync, then rename over the destination. Readers never
// observe a torn snapshot.
func WriteFile(path string, st *State) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: creating directory %s: %w", dir, err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if err := Encode(f, st); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: syncing temp file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapshot: closing temp file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	return nil
}

// ReadFile decodes the snapshot at path.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
