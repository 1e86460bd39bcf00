package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// TestEventIs32Bytes: the ring is DefaultTraceCap events allocated up
// front, so the event's size is the tracer's footprint.
func TestEventIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 32 {
		t.Fatalf("Event is %d bytes, want 32", n)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{TS: int64(i), Kind: EvACT})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("Total/Dropped = %d/%d, want 10/6", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.TS != want {
			t.Errorf("event %d TS = %d, want %d (oldest-first after wrap)", i, ev.TS, want)
		}
	}
}

func TestTracerNilAndUnwrapped(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{}) // must not panic
	if tr.Enabled() || tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer not inert")
	}
	tr = NewTracer(8)
	tr.Emit(Event{TS: 1, Kind: EvRD})
	tr.Emit(Event{TS: 2, Kind: EvWR})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].TS != 1 || evs[1].TS != 2 {
		t.Errorf("unwrapped events = %v", evs)
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d before wrap", tr.Dropped())
	}
}

func TestTracerEmitZeroAlloc(t *testing.T) {
	tr := NewTracer(16)
	if n := testing.AllocsPerRun(100, func() {
		tr.Emit(Event{TS: 5, Kind: EvACT, Channel: 0, Rank: 1, Bank: 2, Row: 3})
	}); n != 0 {
		t.Errorf("Emit allocates %.1f/op, want 0", n)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(Event{TS: 100, Dur: 11, Kind: EvACT, Channel: 0, Rank: 1, Bank: 3, Row: 42, Arg: 4})
	tr.Emit(Event{TS: 120, Dur: 15, Kind: EvRD, Channel: 0, Rank: 1, Bank: 3, Row: 42})
	tr.Emit(Event{TS: 150, Kind: EvMRS, Channel: -1, Rank: -1, Bank: -1, Row: -1, Arg: 2})
	tr.Emit(Event{TS: 160, Dur: 208, Kind: EvREF, Channel: 0, Rank: 0, Bank: -1, Row: -1})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, "test run"); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter produced invalid JSON: %s", buf.String())
	}
	var out struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// 4 events + process_name + thread names (policy + 2 command threads).
	var meta, real int
	for _, ev := range out.TraceEvents {
		if ev.Phase == "M" {
			meta++
		} else {
			real++
		}
	}
	if real != 4 {
		t.Errorf("exported %d events, want 4", real)
	}
	if meta != 4 { // process_name + 3 thread_name (policy, ch0rk1bk3, ch0rk0)
		t.Errorf("exported %d metadata records, want 4", meta)
	}

	// Deterministic: same events, byte-identical export.
	var buf2 bytes.Buffer
	if err := tr.WriteChrome(&buf2, "test run"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("exporter output not deterministic")
	}
}

func TestWriteChromeGroups(t *testing.T) {
	a := NewTracer(4)
	a.Emit(Event{TS: 1, Dur: 2, Kind: EvACT, Row: 7})
	b := NewTracer(4)
	b.Emit(Event{TS: 3, Kind: EvQuarantine, Channel: -1, Rank: -1, Bank: -1, Row: 9, Arg: 4})
	var buf bytes.Buffer
	err := WriteChromeGroups(&buf, []TraceGroup{
		{Label: "variant", Events: a.Events()},
		{Label: "", Events: b.Events()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	evs := out["traceEvents"].([]any)
	pids := map[float64]bool{}
	for _, e := range evs {
		pids[e.(map[string]any)["pid"].(float64)] = true
	}
	if !pids[0] || !pids[1] {
		t.Errorf("groups did not map to distinct pids: %v", pids)
	}
}

// TestRingPacksItself: a ring round-trips through its packed form with
// every field at its extremes and timestamps out of order (slot order is
// not time order once the ring wraps); bytes that end inside an event,
// an unknown kind and a location that does not fit its field are errors.
func TestRingPacksItself(t *testing.T) {
	ring := Ring{
		{TS: 100, Dur: 39, Kind: EvACT, Channel: 0, Rank: 1, Bank: 7, Row: 32767, Arg: 4},
		{TS: 40, Kind: EvViolation, Channel: -1, Rank: -1, Bank: -1, Row: -1, Arg: math.MinInt32},
		{TS: 1 << 50, Dur: math.MaxInt32, Kind: EvREF, Channel: math.MaxInt16, Rank: math.MinInt16, Row: 5, Arg: math.MaxInt32},
	}
	blob, err := ring.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Ring
	if err := got.UnmarshalBinary(blob); err != nil || len(got) != len(ring) {
		t.Fatalf("round trip: %v, %d events", err, len(got))
	}
	for i := range ring {
		if got[i] != ring[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], ring[i])
		}
	}
	for cut := 1; cut < len(blob); cut++ {
		var short Ring
		if err := short.UnmarshalBinary(blob[:cut]); err == nil && len(short) == len(ring) {
			t.Errorf("cut at %d of %d bytes still unpacks every event", cut, len(blob))
		}
	}
	for name, ev := range map[string][8]int64{
		"unknown kind":           {0, 0, int64(numEventKinds), 0, 0, 0, 0, 0},
		"negative kind":          {0, 0, -1, 0, 0, 0, 0, 0},
		"row past an int32":      {0, 0, 0, 0, 0, 0, 1 << 31, 0},
		"duration past an int32": {0, 1 << 31, 0, 0, 0, 0, 0, 0},
		"arg below an int32":     {0, 0, 0, 0, 0, 0, 0, math.MinInt32 - 1},
		"bank past an int16":     {0, 0, 0, 0, 0, 1 << 15, 0, 0},
	} {
		var bad []byte
		for _, v := range ev {
			bad = binary.AppendVarint(bad, v)
		}
		if err := new(Ring).UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: unpacked", name)
		}
	}
	var empty Ring
	if err := empty.UnmarshalBinary(nil); err != nil || len(empty) != 0 {
		t.Errorf("an empty ring: %v, %d events", err, len(empty))
	}
	var streamed bytes.Buffer
	big := make(Ring, 3*ringScratch/10) // several scratch buffers' worth
	for i := range big {
		big[i] = Event{TS: int64(i) * 977, Dur: int32(i), Kind: EvRD, Row: int32(i)}
	}
	if n, err := big.WriteTo(&streamed); err != nil || n != int64(streamed.Len()) {
		t.Fatalf("WriteTo: %d bytes reported, %d written, %v", n, streamed.Len(), err)
	}
	if err := got.UnmarshalBinary(streamed.Bytes()); err != nil || len(got) != len(big) || got[len(got)-1] != big[len(big)-1] {
		t.Fatalf("a ring packed across scratch flushes: %v, %d events", err, len(got))
	}
}

// TestUnmarshalBoundsPreallocation: a blob that claims a million events
// and holds none (every byte a varint continuation) fails having reserved
// at most maxPrealloc events, not len/8 of them.
func TestUnmarshalBoundsPreallocation(t *testing.T) {
	blob := bytes.Repeat([]byte{0x80}, 8<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := new(Ring).UnmarshalBinary(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("unterminated varints unpacked")
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxPrealloc*unsafe.Sizeof(Event{})+64<<10); got > limit {
		t.Errorf("a failed unpack allocated %d bytes, limit %d", got, limit)
	}
}

// FuzzRing: any bytes either fail to unpack or give a ring whose packed
// form is those bytes again — the packing is canonical.
func FuzzRing(f *testing.F) {
	seed, err := Ring{
		{TS: 100, Dur: 39, Kind: EvACT, Channel: 0, Rank: 1, Bank: 7, Row: 32767, Arg: 4},
		{TS: 40, Kind: EvViolation, Channel: -1, Rank: -1, Bank: -1, Row: -1, Arg: -3},
	}.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Ring
		if r.UnmarshalBinary(data) != nil {
			return
		}
		var again bytes.Buffer
		if _, err := r.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("%d events re-pack to %x, unpacked from %x", len(r), again.Bytes(), data)
		}
	})
}

// TestTracerStateAliasesAndValidates: the exported state is the ring
// itself (the snapshot encodes it before the next Emit), and an imported
// one must count at least the events it holds — a negative count would
// index the ring at a negative slot on the next Emit.
func TestTracerStateAliasesAndValidates(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{TS: int64(i), Kind: EvRD})
	}
	st := tr.ExportState()
	if &st.Buf[0] != &tr.buf[0] || st.N != 6 || st.Cap != 4 {
		t.Fatalf("export is not the ring: N %d Cap %d", st.N, st.Cap)
	}
	into := NewTracer(4)
	if err := into.ImportState(st); err != nil {
		t.Fatal(err)
	}
	into.Emit(Event{TS: 6, Kind: EvWR})
	if got := into.Events(); len(got) != 4 || got[3].TS != 6 || got[0].TS != 3 || tr.Events()[3].TS != 5 {
		t.Fatalf("the imported ring wraps differently or shares slots with its source: %+v", got)
	}
	for name, bad := range map[string]TracerState{
		"negative count":          {Buf: st.Buf, N: -1, Cap: 4},
		"count below held":        {Buf: st.Buf, N: 3, Cap: 4},
		"count past a part ring":  {Buf: st.Buf[:2], N: 3, Cap: 4},
		"more events than slots":  {Buf: append(Ring{}, make(Ring, 5)...), N: 5, Cap: 4},
		"capacity of another run": {Buf: st.Buf, N: 6, Cap: 8},
	} {
		if err := NewTracer(4).ImportState(&bad); err == nil {
			t.Errorf("%s: imported", name)
		}
	}
}
