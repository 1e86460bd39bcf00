// The cycle-domain event tracer: a bounded ring buffer of command and
// policy events cheap enough to leave attached to a full run. Export
// with WriteChrome (chrome.go) and open the file in about:tracing or
// Perfetto.

package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EventKind tags one traced event.
type EventKind uint8

// Traced event kinds. Command kinds carry a duration (the constraint
// window the command opens); policy kinds are instants.
const (
	EvACT EventKind = iota
	EvPRE
	EvRD
	EvWR
	EvREF
	EvREFSkip
	// EvCopy is a CROW row copy, EvConvert a CLR capacity/latency
	// conversion; both span the extra cycles charged to the triggering
	// activation.
	EvCopy
	EvConvert
	EvMRS
	EvModeRequest
	EvQuarantine
	EvGovernor
	EvViolation
	numEventKinds
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvACT:
		return "ACT"
	case EvPRE:
		return "PRE"
	case EvRD:
		return "RD"
	case EvWR:
		return "WR"
	case EvREF:
		return "REF"
	case EvREFSkip:
		return "REF-skip"
	case EvCopy:
		return "row-copy"
	case EvConvert:
		return "row-convert"
	case EvMRS:
		return "MRS"
	case EvModeRequest:
		return "mode-request"
	case EvQuarantine:
		return "quarantine"
	case EvGovernor:
		return "governor"
	case EvViolation:
		return "violation"
	}
	return "?"
}

// Instant reports whether the kind renders as an instant (no duration).
func (k EventKind) Instant() bool { return k >= EvMRS }

// Event is one traced occurrence in the memory-cycle domain.
type Event struct {
	// TS is the issue cycle; Dur the cycles the event spans (0 for
	// instants).
	TS   int64
	Dur  int64
	Kind EventKind
	// Channel/Rank/Bank locate command events; -1 marks a field that
	// does not apply (rank-wide REF has Bank -1, device-wide instants
	// have all three -1).
	Channel, Rank, Bank int32
	// Row is the affected row (-1 when not row-scoped); Arg carries a
	// kind-specific value (MCR gang size K, mode generation, quarantined
	// row count, ...).
	Row int32
	Arg int64
}

// Tracer is a bounded ring buffer of Events. Emit is O(1) and
// allocation-free after construction; once the buffer wraps, the oldest
// events are overwritten (Dropped reports how many). A Tracer is not
// safe for concurrent emitters — attach one per run (runplan does).
// A nil *Tracer disables every method.
type Tracer struct {
	buf []Event
	n   int64 // total events emitted
}

// DefaultTraceCap is the ring capacity CLIs use when none is given:
// large enough for ~100k-instruction windows, small enough to stay
// cheap (48 B/event → 3.1 MB, allocated once by NewTracer).
const DefaultTraceCap = 1 << 16

// NewTracer returns a tracer holding the most recent capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev) // guarded by the cap check: the ring fills its preallocated buffer, then overwrites in place
	} else {
		t.buf[t.n%int64(cap(t.buf))] = ev
	}
	t.n++
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Total returns the number of events emitted over the tracer's life.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	if d := t.n - int64(len(t.buf)); d > 0 {
		return d
	}
	return 0
}

// TracerState is the checkpointable state of a tracer: the raw slot
// contents of its ring (not rotated), the lifetime event count and the ring
// capacity. Restoring it into a tracer of the same capacity reproduces
// the exact wrap behavior of the interrupted run.
type TracerState struct {
	Buf Ring
	N   int64
	Cap int
}

// ExportState returns the tracer's state for a checkpoint (nil for a nil
// tracer). Buf is the ring itself, not a copy: encode it before the next Emit.
func (t *Tracer) ExportState() *TracerState {
	if t == nil {
		return nil
	}
	return &TracerState{Buf: Ring(t.buf), N: t.n, Cap: cap(t.buf)}
}

// ImportState overwrites the tracer's ring with a checkpointed state.
// The capacities must match — a ring of a different size would wrap at
// different points and diverge from the uninterrupted run. A nil receiver
// with a nil state is a no-op; any other mismatch is an error.
func (t *Tracer) ImportState(st *TracerState) error {
	if t == nil {
		if st == nil {
			return nil
		}
		return errors.New("obs: checkpoint carries trace events but no tracer is attached")
	}
	if st == nil {
		return nil
	}
	if cap(t.buf) != st.Cap {
		return fmt.Errorf("obs: tracer capacity %d does not match checkpointed capacity %d", cap(t.buf), st.Cap)
	}
	if len(st.Buf) > st.Cap {
		return fmt.Errorf("obs: checkpointed tracer holds %d events over its capacity %d", len(st.Buf), st.Cap)
	}
	// Emit keeps n == len(buf) until the ring is full and n >= len after.
	if held := int64(len(st.Buf)); st.N < held || (st.N > held && len(st.Buf) < st.Cap) {
		return fmt.Errorf("obs: checkpointed tracer counts %d events but holds %d of %d", st.N, held, st.Cap)
	}
	t.buf = append(t.buf[:0], st.Buf...)
	t.n = st.N
	return nil
}

// Ring is a tracer's slots. In a snapshot it packs itself (gob would spend
// a reflective struct encode per event): per event eight varints — TS minus
// the previous TS, Dur, Kind, Channel, Rank, Bank, Row, Arg — about ten
// bytes where the struct is 48.
type Ring []Event

// MarshalBinary implements encoding.BinaryMarshaler.
func (r Ring) MarshalBinary() ([]byte, error) {
	b, ts := make([]byte, 0, 16+12*len(r)), int64(0)
	for i := range r {
		e := &r[i]
		for _, v := range [8]int64{e.TS - ts, e.Dur, int64(e.Kind), int64(e.Channel), int64(e.Rank), int64(e.Bank), int64(e.Row), e.Arg} {
			b = binary.AppendVarint(b, v)
		}
		ts = e.TS
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: bytes that end
// inside an event or hold a value out of its field's range are an error.
func (r *Ring) UnmarshalBinary(data []byte) error {
	out, ts, ok := make(Ring, 0, len(data)/8), int64(0), true // an event takes at least eight bytes
	for len(data) > 0 && ok {
		var f [8]int64
		for j := range f {
			v, w := binary.Varint(data)
			f[j], ok, data = v, ok && w > 0, data[max(w, 0):]
		}
		ts += f[0]
		e := Event{TS: ts, Dur: f[1], Kind: EventKind(f[2]), Channel: int32(f[3]), Rank: int32(f[4]), Bank: int32(f[5]), Row: int32(f[6]), Arg: f[7]}
		ok = ok && uint64(f[2]) < uint64(numEventKinds) && [4]int64{int64(e.Channel), int64(e.Rank), int64(e.Bank), int64(e.Row)} == [4]int64(f[3:7])
		out = append(out, e)
	}
	if !ok {
		return errors.New("obs: malformed packed trace events")
	}
	*r = out
	return nil
}

// Events returns the buffered events oldest-first (a copy).
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	if t.n > int64(len(t.buf)) { // wrapped: start at the oldest slot
		at := int(t.n % int64(len(t.buf)))
		out = append(out, t.buf[at:]...)
		out = append(out, t.buf[:at]...)
		return out
	}
	return append(out, t.buf...)
}
