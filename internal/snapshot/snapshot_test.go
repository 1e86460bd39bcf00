package snapshot

import (
	"bytes"
	"errors"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
			Rows:      integrity.PackRows([]integrity.RowSnapshot{{Bank: 0, Row: 4, AtMs: 1.5, Level: 0.5}}),
			Found:     []integrity.Violation{{Bank: 0, Row: 4, AtMs: 2.5}},
			SenseSeen: [][2]int{{0, 4}},
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
	// every row it shadowed.
	for _, old := range []byte{1, 2} {
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
	raw[len(raw)-1] ^= 0x01 // payload bit flip
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

func TestDecodeImplausibleLength(t *testing.T) {
	raw := encode(t, sample())
	for i := 12; i < 20; i++ {
		raw[i] = 0xFF
	}
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestDecodeValidEnvelopeBadPayload(t *testing.T) {
	// A correct header and checksum over garbage gob bytes must still be
	// a typed error, not a panic or a zero State.
	payload := []byte("definitely not gob")
	var buf bytes.Buffer
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	putU32 := func(off int, v uint32) {
		hdr[off], hdr[off+1], hdr[off+2], hdr[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	putU64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			hdr[off+i] = byte(v >> (8 * i))
		}
	}
	putU32(8, Version)
	putU64(12, uint64(len(payload)))
	putU64(20, crc64.Checksum(payload, crcTable))
	buf.Write(hdr)
	buf.Write(payload)
	if _, err := Decode(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

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
