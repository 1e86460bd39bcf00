// Command-stream capture: a bounded ring of recent DRAM commands for
// debugging schedules and for tests that assert command-level properties.
// The log piggybacks on the Hook mechanism so it costs nothing when
// detached; use NewCommandLog + SetHook (optionally chaining another hook).

package dram

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// LoggedCommand is one captured device event.
type LoggedCommand struct {
	Kind core.CommandKind
	Addr core.Address // Row is the closed row for PRE, -1 for REF
	At   int64        // memory cycle
	MEff int          // restore class for PRE/REF events (0 otherwise)
}

// String renders the entry as "cycle CMD address".
func (c LoggedCommand) String() string {
	switch c.Kind {
	case core.CmdRefresh:
		return fmt.Sprintf("%8d REF ch%d r%d (m=%d)", c.At, c.Addr.Channel, c.Addr.Rank, c.MEff)
	case core.CmdPrecharge:
		return fmt.Sprintf("%8d PRE %v (m=%d)", c.At, c.Addr, c.MEff)
	default:
		return fmt.Sprintf("%8d %s %v", c.At, c.Kind, c.Addr)
	}
}

// CommandLog records the last N activate/precharge/refresh events. It
// is a debug ring of past events with no forward effect on the run, so a
// checkpoint does not carry it.
type CommandLog struct {
	ring  []LoggedCommand
	next  int
	count int64
	inner Hook // optional chained hook
}

// NewCommandLog builds a log holding up to capacity events.
func NewCommandLog(capacity int, inner Hook) *CommandLog {
	if capacity < 1 {
		capacity = 1
	}
	return &CommandLog{ring: make([]LoggedCommand, 0, capacity), inner: inner}
}

// push appends one event, evicting the oldest beyond capacity.
func (l *CommandLog) push(c LoggedCommand) {
	l.count++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, c)
		return
	}
	l.ring[l.next] = c
	l.next = (l.next + 1) % len(l.ring)
}

// Activated implements Hook.
func (l *CommandLog) Activated(a core.Address, now int64) {
	l.push(LoggedCommand{Kind: core.CmdActivate, Addr: a, At: now})
	if l.inner != nil {
		l.inner.Activated(a, now)
	}
}

// Precharged implements Hook.
func (l *CommandLog) Precharged(a core.Address, row int, mEff int, now int64) {
	a.Row = row
	l.push(LoggedCommand{Kind: core.CmdPrecharge, Addr: a, At: now, MEff: mEff})
	if l.inner != nil {
		l.inner.Precharged(a, row, mEff, now)
	}
}

// Refreshed implements Hook.
func (l *CommandLog) Refreshed(ch, rank int, rows []int, mEff int, now int64) {
	l.push(LoggedCommand{Kind: core.CmdRefresh, Addr: core.Address{Channel: ch, Rank: rank, Row: -1}, At: now, MEff: mEff})
	if l.inner != nil {
		l.inner.Refreshed(ch, rank, rows, mEff, now)
	}
}

// Total returns how many events have been observed (including evicted).
func (l *CommandLog) Total() int64 { return l.count }

// Recent returns the captured events, oldest first.
func (l *CommandLog) Recent() []LoggedCommand {
	out := make([]LoggedCommand, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// String renders the whole window.
func (l *CommandLog) String() string {
	var b strings.Builder
	for _, c := range l.Recent() {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

var _ Hook = (*CommandLog)(nil)
