package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one claim the test suite should pin, stated as the smallest
// edit of the product (a path under internal/) that breaks it. The census
// (census_test.go, build tag census) runs the suite once per mutant and
// records the tests that fail.
type mutant struct {
	name string
	edit
}

// mutants is the census list: each DDR3 constraint shaved by one cycle,
// each Table 3 column, the mechanisms and Refresh-Skipping's M, the
// wiring's restore class, the MCR geometry, the allocator, the
// controller's drain, scheduling and refresh rules, each term of the
// event engine's core horizon, one snapshot field per layer and the
// resume cycle, the integrity checker, the energy model, the circuit
// model, the trace source and the figures' reduction.
//
// One candidate is equivalent and left out. tRC one cycle short: ACT to
// PRE is tRAS and PRE to ACT is tRP, so tRC = tRAS + tRP never binds.
var mutants = []mutant{
	{"DDR3 tRCD one cycle short", edit{"dram/commands.go", "b.NextRead = max(b.NextRead, now+int64(p.TRCD)+extra)", "b.NextRead = max(b.NextRead, now+int64(p.TRCD)-1+extra)"}},
	{"DDR3 tRAS one cycle short", edit{"dram/commands.go", "b.NextPre = max(b.NextPre, now+int64(p.TRAS)+extra)", "b.NextPre = max(b.NextPre, now+int64(p.TRAS)-1+extra)"}},
	{"DDR3 tRP one cycle short", edit{"dram/commands.go", "Done: now + int64(d.tim.Normal.TRP)}", "Done: now + int64(d.tim.Normal.TRP) - 1}"}},
	{"DDR3 tRRD one cycle short", edit{"dram/commands.go", "now+int64(d.tim.Normal.TRRD))", "now+int64(d.tim.Normal.TRRD)-1)"}},
	{"DDR3 tFAW one cycle short", edit{"dram/commands.go", "return oldest + int64(tFAW)", "return oldest + int64(tFAW) - 1"}},
	{"DDR3 tWTR one cycle short", edit{"dram/commands.go", "end+int64(d.tim.Normal.TWTR))", "end+int64(d.tim.Normal.TWTR)-1)"}},
	{"DDR3 tRFC one cycle short", edit{"dram/commands.go", "tRFC := int64(d.tim.Normal.TRFC)", "tRFC := int64(d.tim.Normal.TRFC) - 1"}},
	{"DDR3 tRTP one cycle short", edit{"dram/commands.go", "now+int64(d.tim.Normal.TRTP))", "now+int64(d.tim.Normal.TRTP)-1)"}},
	{"DDR3 tWR one cycle short", edit{"dram/commands.go", "end+int64(d.tim.Normal.TWR))", "end+int64(d.tim.Normal.TWR)-1)"}},
	// After a read the bus gate (tBURST = tCCD) masks tCCD, so shaving it
	// there is equivalent; after a write it binds on a read to another rank.
	{"DDR3 tCCD one cycle short", edit{"dram/commands.go", "d.nextCol[a.Channel] = now + int64(d.tim.Normal.TCCD)\n\t// Write", "d.nextCol[a.Channel] = now + int64(d.tim.Normal.TCCD) - 1\n\t// Write"}},
	// The scheduler issuing a command one cycle before its gate, and a
	// column access to a bank whose open row misses: the device issues
	// whatever it is asked, so the protocol oracle must catch these.
	{"the scheduler's ACT one cycle early", edit{"controller/scheduler.go", "if c.due(t, now) {\n\t\t\tc.dev.Activate(", "if c.due(t-1, now) {\n\t\t\tc.dev.Activate("}},
	{"the scheduler's RD one cycle early", edit{"controller/scheduler.go", "c.dev.EarliestColumnAt(q[i].Bank, write, now), now)", "c.dev.EarliestColumnAt(q[i].Bank, write, now)-map[bool]int64{false: 1}[write], now)"}},
	{"the scheduler's WR one cycle early", edit{"controller/scheduler.go", "c.dev.EarliestColumnAt(q[i].Bank, write, now), now)", "c.dev.EarliestColumnAt(q[i].Bank, write, now)-map[bool]int64{true: 1}[write], now)"}},
	{"the scheduler's PRE one cycle early", edit{"controller/scheduler.go", "c.dev.EarliestPrechargeAt(req.Bank, now); c.due(t, now)", "c.dev.EarliestPrechargeAt(req.Bank, now); c.due(t-1, now)"}},
	{"the scheduler's REF one cycle early", edit{"controller/scheduler.go", "!ok || !c.due(t, now) {", "!ok || !c.due(t-1, now) {"}},
	{"a column access needs a row hit", edit{"controller/scheduler.go", "case c.dev.IsRowHitAt(req.Bank, req.Addr.Row):", "case true:"}},
	{"DDR3 rank switch one cycle short", edit{"dram/commands.go", "busFree += int64(d.tim.Normal.TRTRS)", "busFree += int64(d.tim.Normal.TRTRS) - 1"}},
	{"Table 3 tRCD of 4x", edit{"timing/timing.go", "{K: 4, M: 1, TRCDNS: 6.90,", "{K: 4, M: 1, TRCDNS: 7.90,"}},
	{"Table 3 tRAS of 2/2x", edit{"timing/timing.go", "TRASNS: 21.46,", "TRASNS: 22.46,"}},
	{"Table 3 tRFC of 4/4x", edit{"timing/timing.go", "TRFC4Gb: 180.00}", "TRFC4Gb: 190.00}"}},
	{"Early-Access follows its own toggle", edit{"mech/timings.go", "if c.Mech.EarlyAccess {", "if c.Mech.EarlyPrecharge {"}},
	{"Early-Precharge off restores fully", edit{"mech/timings.go", "ns.TRAS = full.TRASNS // must fully restore K cells", "ns.TRAS = eff.TRASNS"}},
	{"Fast-Refresh follows its own toggle", edit{"mech/timings.go", "if c.Mech.FastRefresh && c.Mech.EarlyPrecharge", "if c.Mech.EarlyPrecharge"}},
	{"Refresh-Skipping keeps M of K refreshes", edit{"mcr/layoutsched.go", "op.Skipped = (occurrence+group)%(band.K/band.M) != 0", "op.Skipped = (occurrence+group)%band.K != 0"}},
	{"K-to-N-1-K wiring reverses the counter", edit{"mcr/refresh.go", "return reverseBits(c, n)", "return c"}},
	{"an MCR's clones share its base row", edit{"mcr/generator.go", "return row &^ (g.KAt(row) - 1) }", "return row }"}},
	{"a band starts at its first row", edit{"mcr/generator.go", "if local >= g.starts[i] && local < g.ends[i] {", "if local > g.starts[i] && local < g.ends[i] {"}},
	{"the bands repeat in every subarray", edit{"mcr/generator.go", "local := row & (g.subarrayRows - 1)", "local := row"}},
	{"rows of two MCRs of a band are two gangs", edit{"mcr/generator.go", "return ia >= 0 && ia == ib && g.MCRBase(a) == g.MCRBase(b)", "return ia >= 0 && ia == ib"}},
	{"a row hit covers the open row's clones", edit{"dram/device.go", "return d.mech.SameGang(open, row)", "return false"}},
	{"the allocator places the hottest rows first", edit{"alloc/alloc.go", "cmp.Compare(b.Count, a.Count)", "cmp.Compare(a.Count, b.Count)"}},
	{"the allocator skips only rows on an MCR base", edit{"alloc/alloc.go", "if gen.InMCR(hot) && gen.MCRBase(hot) == hot {", "if gen.InMCR(hot) {"}},
	{"write drain starts at the high watermark", edit{"controller/scheduler.go", "case nw >= c.cfg.HighWatermark:", "case nw > c.cfg.HighWatermark:"}},
	{"write drain stops at the low watermark", edit{"controller/scheduler.go", "case cur && nw <= c.cfg.LowWatermark:", "case cur && nw < c.cfg.LowWatermark:"}},
	{"FR-FCFS serves row hits first", edit{"controller/scheduler.go", "if c.cfg.Scheduler == FCFS {", "if true {"}},
	{"a refresh is forced at the debt limit", edit{"controller/scheduler.go", "if rr.Debt < c.cfg.MaxRefreshDebt {", "if rr.Debt <= c.cfg.MaxRefreshDebt {"}},
	{"refresh debt accrues every tREFI", edit{"controller/scheduler.go", "rr.NextDue += c.tREFI", "rr.NextDue += c.tREFI + 1"}},
	{"a blocked request is charged to tRAS or tRFC", edit{"controller/scheduler.go", "c.charge(&req.RasBlocked)", "c.charge(&req.RefBlocked)"}},
	{"core horizon: the next poll boundary", edit{"sim/engine.go", "h = nextPoll(mem)", "h = nextPoll(mem) + 1"}},
	{"core horizon: the first pending completion", edit{"sim/engine.go", "h = min(h, ls.Pending[0].DoneAt)\n\t}\n\tfor", "h = min(h, ls.Pending[0].DoneAt+1)\n\t}\n\tfor"}},
	{"core horizon: each core's skip bound", edit{"sim/engine.go", "h = min(h, mem+1+b/int64(core.CPUCyclesPerMemCycle))", "h = min(h, mem+2+b/int64(core.CPUCyclesPerMemCycle))"}},
	{"snapshot: the device's column gate", edit{"dram/state.go", "copy(d.nextCol, st.NextCol)\n", ""}},
	{"snapshot: the controller's refresh state", edit{"controller/state.go", "copy(c.refresh, st.Refresh)\n", ""}},
	{"snapshot: a core's issued reads", edit{"cpu/state.go", "c.ReadsIssued, c.WritesIssued, c.FetchStalls = st.ReadsIssued,", "c.ReadsIssued, c.WritesIssued, c.FetchStalls = 0,"}},
	{"snapshot: NUAT's refresh counter", edit{"mech/state.go", "s.counter = st.Counter\n", ""}},
	{"snapshot: the checker's violations", edit{"integrity/integrity.go", "c.found = slices.Clone(st.Found)", "c.found = nil"}},
	{"resume at the snapshot's cycle", edit{"sim/checkpoint.go", "s.next = st.NextCycle", "s.next = st.NextCycle + 1"}},
	{"a restore recharges the whole gang", edit{"integrity/integrity.go", "c.restore(bank, r, restoreLevel, tMs)", "c.restore(bank, base, restoreLevel, tMs)"}},
	{"an activation checks the row before recharging it", edit{"integrity/integrity.go", "c.check(bank, r, tMs)\n", ""}},
	{"the retention floor is one window's leak", edit{"integrity/integrity.go", "floor: 1 - leakPerWindow}", "floor: 1 - 2*leakPerWindow}"}},
	{"Early-Precharge restores to decay to the floor", edit{"integrity/integrity.go", "return 1 - leakPerWindow*(1-1/float64(m))", "return 1 - leakPerWindow*(1-1/float64(2*m))"}},
	{"energy: each extra wordline", edit{"power/power.go", "(1 + p.WordlineOverhead*(k-1))", "(1 + p.WordlineOverhead*k)"}},
	{"energy: Fast-Refresh's shorter REF", edit{"power/power.go", "float64(u.MCRRefs)*p.ERefreshNJ*refRatio", "float64(u.MCRRefs)*p.ERefreshNJ"}},
	{"circuit: K cells share charge", edit{"circuit/circuit.go", "dvb := float64(k) / p.CBitOverCCell", "dvb := 1 / p.CBitOverCCell"}},
	{"circuit: Early-Precharge's leakage credit", edit{"circuit/circuit.go", "return full - credit", "return full - credit/2"}},
	{"trace: math/rand's second tap", edit{"trace/source.go", "rngTap   = 273", "rngTap   = 274"}},
	{"trace: the workload's read fraction", edit{"trace/generator.go", "if g.rng.Float64() < g.w.ReadFrac {", "if g.rng.Float64() < g.w.ReadFrac/2 {"}},
	{"figures: reduction is relative to the baseline", edit{"experiments/experiments.go", "return (b - v) / b * 100", "return (b - v) / v * 100"}},
}

// TestMutantAnchorsOccurOnce keeps the census list in step with the code
// without running the census: each mutant's old text occurs exactly once
// in its file, and no two mutants share a name.
func TestMutantAnchorsOccurOnce(t *testing.T) {
	names := map[string]bool{}
	for _, m := range mutants {
		if names[m.name] || strings.ContainsAny(m.name, "\t\n") {
			t.Errorf("mutant name %q is repeated or holds a tab or newline", m.name)
		}
		names[m.name] = true
		data, err := os.ReadFile(filepath.Join("..", m.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), m.old); n != 1 || m.old == m.new {
			t.Errorf("mutant %q: anchor %q occurs %d times in %s, want exactly 1 — re-anchor it", m.name, m.old, n, m.file)
		}
	}
}
