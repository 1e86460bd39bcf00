// Package sim assembles the full system of paper Table 4 — trace-driven
// cores, the FR-FCFS memory controller, the MCR-DRAM device and the power
// model — and runs it to completion, reporting execution time, read
// latency, energy and EDP.
//
// # Adding a field to simulator state
//
// Any field the cycle loop can mutate is simulator state, wherever it
// lives — Sim itself, the loop, the device, a mechanism backend, the
// controller, a core. Checkpoint/restore (checkpoint.go) promises a
// resumed run byte-identical to an uninterrupted one, which holds only
// if every such field round-trips. The snapshot carries the live types
// themselves, so there is one step:
//
//  1. Add the field to the owning package's State (dram.State,
//     mech.State, controller.State, cpu.State, snapshot.LoopState, …) or
//     to an element type already in it (a bank, a queued request, a ROB
//     entry) — exported, because encoding/gob only carries exported
//     fields — and, if it is an index or a cursor, range-check it in
//     that package's ImportState.
//
// TestRestoreEqualsLive fails with the field's path if you put it
// anywhere else: it restores every snapshot a run writes and compares the
// restored Sim with the live one field by field. Per-pass scratch that a
// restore may leave behind is listed, with the reason, in that test's
// notRestored table and nowhere else.
package sim
