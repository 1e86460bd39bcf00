package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/controller"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/integrity"
	"repro/internal/mcr"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/trace"
)

// sample builds a fully populated state (no nil pointers, no empty
// slices) so a decode can be compared field-for-field: gob drops
// zero-length values, which would make nil-vs-empty comparisons noisy.
// The device, controller and core states carry those packages' own
// element types, so they are exported from real components driven a few
// cycles: a queued read and write, a forwarded read's completion, an
// open bank, a partly filled ROB.
func sample() *State {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	dev, err := dram.New(dram.DefaultConfig(mcr.Off()))
	must(err)
	ctrl, err := controller.New(controller.DefaultConfig(), dev, nil)
	must(err)
	w, err := trace.ByName("stream")
	must(err)
	gen, err := trace.New(w, 1, 1000, 0)
	must(err)
	core, err := cpu.New(cpu.DefaultConfig(), 0, gen, ctrl, 1000)
	must(err)
	ctrl.EnqueueWrite(1<<20, 0, 0)
	ctrl.EnqueueRead(1<<20, 0, 0) // forwarded from the write: a completion
	for now := int64(0); now < 8; now++ {
		for i := int64(0); i < 4; i++ {
			core.Cycle(now*4+i, now)
		}
		ctrl.Tick(now)
	}
	device := dev.ExportState()
	device.Mech = mech.State{
		Quarantined: []int{4, 9},
		Mode:        mcr.Mode{K: 4, M: 2, Region: 0.5},
		ModeGen:     3,
		Counter:     17,
		Acts:        []mech.IntPair{{K: 1, V: 2}},
		Marked:      []int{5},
		Banned:      []int{6},
		Budget:      []mech.IntPair{{K: 0, V: 1}},
	}
	return &State{
		ConfigJSON: []byte(`{"Seed":1}`),
		NextCycle:  0x3000,
		Device:     device,
		Controller: ctrl.ExportState(),
		Cores:      []cpu.State{core.ExportState()},
		Integrity: &integrity.State{
			Rows:  integrity.PackRows([]integrity.RowSnapshot{{Bank: 0, Row: 4, AtMs: 1.5, Level: 0.5}}),
			Found: []integrity.Violation{{Bank: 0, Row: 4, AtMs: 2.5}},
		},
		Resilience: &ResilienceState{
			Seen:      [][2]int{{0, 4}},
			Governor:  &GovernorState{Pos: 1, Violations: 3},
			Processed: 1,
			Stats:     ResilienceStats{ECCEvents: 1, QuarantinedRows: 2, Downgrades: 1, InitialMode: "MCR-4x", FirstErrorMs: 2.5},
		},
		Obs: &obs.Snapshot{
			Commands:            map[string]int64{"ACT": 11},
			PerBank:             map[string][]int64{"ACT": {11}},
			RowHits:             7,
			Reads:               10,
			LatencyBoundsCycles: []int64{10, 20},
			LatencyCounts:       []int64{1, 2, 3},
		},
		Trace: &obs.TracerState{Buf: obs.Ring{{TS: 5, Kind: obs.EvACT, Bank: 1, Row: 2}, {TS: 3, Dur: 11, Kind: obs.EvGovernor, Channel: -1, Rank: -1, Bank: -1, Row: -1, Arg: -7}}, N: 2, Cap: 64},
		Loop: LoopState{
			IdleStreak:       []int{3},
			Pending:          []controller.Completion{{ID: 9, CoreID: 0, ArriveAt: 1, DoneAt: 0x3005}},
			Hist:             &Histogram{BoundsNS: []float64{20, 30}, Counts: []int64{1, 2, 3}, N: 6, SumNS: 123.5},
			ActiveCyc:        100,
			StandbyCyc:       200,
			PDCyc:            300,
			TotalReadLatency: 4000,
			Reads:            10,
			WarmStart:        0x1000,
			Warmed:           true,
			CPUCycle:         0xC000,
		},
	}
}

// encode renders a state to bytes.
func encode(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundtrip(t *testing.T) {
	want := sample()
	got, err := Decode(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// The arrays travel outside gob, and their owners inside it must still
	// arrive when the arrays are all they hold.
	bare := &State{Integrity: &integrity.State{Rows: want.Integrity.Rows}, Trace: &obs.TracerState{Buf: want.Trace.Buf}}
	got, err = Decode(bytes.NewReader(encode(t, bare)))
	if err != nil || !reflect.DeepEqual(got.Integrity, bare.Integrity) || !reflect.DeepEqual(got.Trace, bare.Trace) {
		t.Fatalf("a state holding only the two arrays: %v, %+v", err, got)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	want := sample()
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("WriteFile/ReadFile roundtrip mismatch")
	}
	// The atomic protocol must not leave temp files behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestWriteFileCreatesDirectory: a checkpoint directory that does not
// exist yet (reproduce -checkpoint-dir on first use) is created, not an
// error.
func TestWriteFileCreatesDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "dir", "run.ckpt")
	if err := WriteFile(path, sample()); err != nil {
		t.Fatalf("WriteFile into missing directory: %v", err)
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
}

func TestReadFileMissing(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "absent.ckpt"))
	if !os.IsNotExist(err) {
		t.Fatalf("want os.IsNotExist error, got %v", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	raw := encode(t, sample())
	raw[0] ^= 0xFF
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	raw := encode(t, sample())
	raw[8] = 0xFE // version field, outside the payload checksum
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
	// A version-1 file (the mirror-type payload): gob would decode it into
	// today's types with the new fields silently zero, so the header must
	// turn it away first.
	// Likewise a version-2 file (rows and events as gob slices of structs):
	// Rows would come back empty and the restored checker would forget
	// every row it shadowed. A version-3 file has its length and checksum
	// in the header and both arrays inside the gob stream.
	for _, old := range []byte{1, 2, 3} {
		copy(raw[8:12], []byte{old, 0, 0, 0})
		if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version-%d header: want ErrVersion, got %v", old, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw := encode(t, sample())
	for _, n := range []int{0, 3, headerSize - 1, headerSize, headerSize + 7, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:n])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d bytes: want ErrTruncated, got %v", n, err)
		}
	}
}

func TestDecodeChecksumMismatch(t *testing.T) {
	raw := encode(t, sample())
	raw[len(raw)-trailerSize-1] ^= 0x01 // payload bit flip
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

func TestDecodeImplausibleLength(t *testing.T) {
	raw := encode(t, sample())
	for i := len(raw) - trailerSize; i < len(raw)-8; i++ {
		raw[i] = 0xFF
	}
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// envelope wraps a hand-built payload in a valid header and trailer.
func envelope(payload []byte) []byte {
	raw := binary.LittleEndian.AppendUint32([]byte(magic), Version)
	raw = append(raw, payload...)
	raw = binary.LittleEndian.AppendUint64(raw, uint64(len(payload)))
	return binary.LittleEndian.AppendUint64(raw, crc64.Checksum(payload, crcTable))
}

// TestDecodeValidEnvelopeBadPayload: a correct envelope and checksum over
// a payload the encoder could not have written must still be a typed
// error, not a panic or a zero State.
func TestDecodeValidEnvelopeBadPayload(t *testing.T) {
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	var gobOnly bytes.Buffer // a valid gob State with neither array set
	if err := gob.NewEncoder(&gobOnly).Encode(&State{NextCycle: 1}); err != nil {
		t.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, payload := range map[string][]byte{
		"garbage gob":                    cat(u64(0), u64(0), []byte("definitely not gob")),
		"no room for a section length":   {1, 2, 3},
		"row section past the payload":   cat(u64(1<<20), []byte{1}),
		"event section past the payload": cat(u64(0), u64(5), []byte{1}),
		"rows but no integrity state":    cat(u64(1), []byte{0}, u64(0), gobOnly.Bytes()),
		"events but no tracer state":     cat(u64(0), u64(8), make([]byte, 8), gobOnly.Bytes()),
		"events cut inside an event":     cat(u64(0), u64(3), make([]byte, 3), gobOnly.Bytes()),
	} {
		if _, err := Decode(bytes.NewReader(envelope(payload))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
	if st, err := Decode(bytes.NewReader(envelope(cat(u64(0), u64(0), gobOnly.Bytes())))); err != nil || st.NextCycle != 1 {
		t.Fatalf("the control payload: %v", err)
	}
	raw := encode(t, sample())
	if _, err := Decode(bytes.NewReader(append(raw[:len(raw):len(raw)], 0))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a byte after the trailer: want ErrCorrupt, got %v", err)
	}
}

// TestEncodeStreams: a state carrying a full default-capacity trace ring
// encodes with allocations below a quarter of the bytes written — the
// packed ring and the payload are streamed, never held.
func TestEncodeStreams(t *testing.T) {
	st := sample()
	st.Trace = &obs.TracerState{Buf: make(obs.Ring, obs.DefaultTraceCap), N: obs.DefaultTraceCap, Cap: obs.DefaultTraceCap}
	for i := range st.Trace.Buf {
		st.Trace.Buf[i] = obs.Event{TS: int64(i) * 37, Dur: 11, Kind: obs.EvRD, Bank: int16(i & 7), Row: int32(i * 13 % 32768), Arg: 4}
	}
	var w countWriter
	if err := Encode(&w, st); err != nil { // warm gob's type cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w = 0
	if err := Encode(&w, st); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Encode allocated %d bytes writing %d", alloc, w)
	if alloc*4 >= uint64(w) {
		t.Error("Encode holds what it writes")
	}
	got, err := Decode(bytes.NewReader(encode(t, st)))
	if err != nil || !reflect.DeepEqual(got.Trace, st.Trace) {
		t.Fatalf("the full ring does not round-trip: %v", err)
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

func FuzzSnapshotDecode(f *testing.F) {
	raw := func() []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, sample()); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte(magic))
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(raw[:headerSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any input must decode or fail with a typed error — never panic.
		st, err := Decode(bytes.NewReader(data))
		if err != nil {
			for _, want := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		// A successful decode must re-encode cleanly.
		if err := Encode(io.Discard, st); err != nil {
			t.Fatalf("re-encoding decoded state: %v", err)
		}
	})
}
