package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/alloc"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced step loop: the stepped memory-cycle body of internal/sim,
// assembled and driven from outside through exported functions only, so
// that every call into a layer can be bracketed by a span without
// touching the program. It exists to say where the nanoseconds of one
// step go; the fidelity gate (LoopResult.Fidelity) keeps it honest — its
// cycle count, reads and per-core retire cycles must equal sim.Run's
// under the Stepped engine.

// SampleEvery is the span sampling period in memory cycles: prime, so it
// does not lock onto the 4096-cycle poll cadence or a refresh interval.
// A sampled step costs ~1.7 us here (some 14 clock reads at ~50 ns in
// place, cold code, then the horizon queries) against 220-900 ns for a
// plain step; at the 61 first proposed the traced loop ran 1.07-1.14x
// the untraced Stepped wall on the single-core workloads. SampleEveryIdle
// is idle_1c's, where a whole step costs ~100 ns.
const (
	SampleEvery     = 127
	SampleEveryIdle = 509
)

// spanKind indexes spanNames.
type spanKind uint8

const (
	spStep spanKind = iota
	spDeliver
	spCPUCycle
	spEnqueue
	spTick
	spDrain
	spRankBusy
	spHorizon
	spNextEvent
	spSkipBound
	spNextReady
	spNull
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"sim.step", "sim.deliver", "cpu.cycle", "controller.enqueue",
	"controller.tick", "controller.drain", "dram.rank_busy",
	"sim.horizon", "controller.next_event", "cpu.skip_bound", "dram.next_ready",
	"bench.null_span",
}

// span is one bracketed call: kind, start and end in nanoseconds since
// the loop started, the index of the span that caused it (-1 for a root)
// and the step (memory cycle) all spans of one step share.
type span struct {
	kind       spanKind
	parent     int32
	step       int64
	start, end int64
}

// Attach selects what the loop hangs on the device and controller.
type Attach struct {
	// Obs attaches a registry and tracer through SetObservability.
	Obs bool
	// Integrity attaches the retention checker with the guarded runs'
	// fault population through integrity.AttachWithFaults.
	Integrity bool
}

// StepLoop is one assembled system plus the loop state.
type StepLoop struct {
	geom  core.Geometry
	dev   *dram.Device
	ctrl  *controller.Controller
	cores []*cpu.Core
	mem   *tracedMemory

	pending  completionHeap
	cpuCycle int64
	busy     int64 // rank-cycles busy; keeps the RankBusy calls live

	every    int64 // sampling period
	t0       time.Time
	spans    []span
	sampling bool  // inside a sampled step
	step     int64 // the sampled step's memory cycle
	cur      int32 // span a nested Enqueue call hangs under

	// dropCycles drops core 0's first Cycle call of every sampled step:
	// the deliberate perturbation bench_test.go uses to show the fidelity
	// gate can fail.
	dropCycles bool
}

// tracedMemory is the cpu.MemorySystem decorator: it forwards to the
// controller, counts attempts and refusals, and brackets the call with a
// span inside sampled steps.
type tracedMemory struct {
	ctrl              *controller.Controller
	loop              *StepLoop
	attempts, rejects int64
}

func (m *tracedMemory) EnqueueRead(line int64, coreID int, now int64) (int64, bool) {
	m.attempts++
	var idx int32 = -1
	if m.loop.sampling {
		idx = m.loop.open(spEnqueue, m.loop.cur)
	}
	id, ok := m.ctrl.EnqueueRead(line, coreID, now)
	if idx >= 0 {
		m.loop.close(idx)
	}
	if !ok {
		m.rejects++
	}
	return id, ok
}

func (m *tracedMemory) EnqueueWrite(line int64, coreID int, now int64) bool {
	m.attempts++
	var idx int32 = -1
	if m.loop.sampling {
		idx = m.loop.open(spEnqueue, m.loop.cur)
	}
	ok := m.ctrl.EnqueueWrite(line, coreID, now)
	if idx >= 0 {
		m.loop.close(idx)
	}
	if !ok {
		m.rejects++
	}
	return ok
}

// completionHeap is a min-heap of completions by due cycle, typed for the
// same reason sim's is: container/heap would box one value per push.
type completionHeap []controller.Completion

func (h *completionHeap) push(c controller.Completion) {
	*h = append(*h, c)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].DoneAt <= q[i].DoneAt {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *completionHeap) pop() controller.Completion {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].DoneAt < q[m].DoneAt {
			m = r
		}
		if q[i].DoneAt <= q[m].DoneAt {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// NewStepLoop assembles dram.New → controller.New → trace.New → cpu.New
// in sim.NewSim's order, with its per-core seed and base-row derivation.
// Only what the benchmark's bare configurations use is supported:
// allocation, warm-up, resilience and checkpoints are refused.
//
// Every every-th memory cycle is traced. memCycles, when positive, is the
// expected run length (the Stepped reference's): the span buffer is then
// sized and touched up front, so that no sampled step pays for growing it
// or for a first-touch page fault.
func NewStepLoop(cfg sim.Config, at Attach, every, memCycles int64) (*StepLoop, error) {
	if every <= 0 {
		return nil, fmt.Errorf("bench: step loop sampling period must be positive, got %d", every)
	}
	if cfg.AllocRatio != 0 || cfg.AllocRatio4 != 0 || cfg.AllocRatio2 != 0 || cfg.WarmupInsts != 0 ||
		cfg.Resilience != nil || cfg.Checkpoint != nil || cfg.SharedFootprint || len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("bench: step loop supports only bare configurations")
	}
	dev, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	geom := dev.Config().Geom
	if at.Integrity {
		fcfg := *guardFaults()
		fcfg.Seed = cfg.Seed
		fm, err := fault.NewModel(fcfg, geom.Rows)
		if err != nil {
			return nil, err
		}
		if _, err := integrity.AttachWithFaults(dev, integrity.DefaultConfig(), fm); err != nil {
			return nil, err
		}
	}
	ctrl, err := controller.New(cfg.Ctrl, dev, alloc.Identity(geom))
	if err != nil {
		return nil, err
	}
	if at.Obs {
		reg, tr := obs.NewRegistry(), obs.NewTracer(obs.DefaultTraceCap)
		reg.EnsureBanks(geom.Channels * geom.Ranks * geom.Banks)
		dev.SetObservability(reg, tr)
		ctrl.SetObservability(reg, tr)
	}
	l := &StepLoop{geom: geom, dev: dev, ctrl: ctrl, every: every}
	l.mem = &tracedMemory{ctrl: ctrl, loop: l}
	for i, name := range cfg.Workloads {
		w, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		// sim.coreSeed and sim.coreBaseRow, which are not exported.
		seed := cfg.Seed*1_000_003 + int64(i)*7_919
		baseRow := int64(i) * (geom.TotalRows() / int64(len(cfg.Workloads)))
		gen, err := trace.New(w, seed, cfg.InstsPerCore, baseRow)
		if err != nil {
			return nil, err
		}
		c, err := cpu.New(cfg.CPU, i, gen, l.mem, cfg.InstsPerCore)
		if err != nil {
			return nil, err
		}
		l.cores = append(l.cores, c)
	}
	if memCycles > 0 {
		// Per sampled step: two roots, deliver, null, tick, drain, the
		// three horizon queries' fixed part, then per core four cycles and
		// a skip bound, per rank a busy probe; enqueues ride in the slack.
		perStep := int64(10 + 5*len(l.cores) + geom.Channels*geom.Ranks)
		buf := make([]span, (memCycles/every+2)*perStep*5/4)
		for i := range buf {
			buf[i].parent = -1
		}
		l.spans = buf[:0]
	}
	return l, nil
}

func (l *StepLoop) now() int64 { return int64(time.Since(l.t0)) }

// open starts a span now and returns its index.
func (l *StepLoop) open(kind spanKind, parent int32) int32 {
	return l.openAt(kind, parent, l.now())
}

func (l *StepLoop) openAt(kind spanKind, parent int32, start int64) int32 {
	l.spans = append(l.spans, span{kind: kind, parent: parent, step: l.step, start: start})
	return int32(len(l.spans) - 1)
}

// close ends a span now and returns the timestamp, which the caller
// reuses as the next sibling's start: one clock read per boundary.
func (l *StepLoop) close(idx int32) int64 {
	t := l.now()
	l.spans[idx].end = t
	return t
}

// drained reports whether every core retired its trace and nothing is in
// flight.
func (l *StepLoop) drained() bool {
	for _, c := range l.cores {
		if !c.Done() {
			return false
		}
	}
	r, w := l.ctrl.Pending()
	return r == 0 && w == 0 && len(l.pending) == 0
}

// deliver hands due completions to their cores.
func (l *StepLoop) deliver(mem int64) {
	for len(l.pending) > 0 && l.pending[0].DoneAt <= mem {
		comp := l.pending.pop()
		l.cores[comp.CoreID].Complete(comp.ID)
	}
}

// drain moves the controller's finished reads to the cores or the heap.
func (l *StepLoop) drain(mem int64) {
	for _, comp := range l.ctrl.DrainCompletions() {
		if comp.DoneAt <= mem {
			l.cores[comp.CoreID].Complete(comp.ID)
		} else {
			l.pending.push(comp)
		}
	}
}

// plainStep is sim's loopState.step without warm-up and power
// bookkeeping: the body of every unsampled cycle.
func (l *StepLoop) plainStep(mem int64) (done bool) {
	l.deliver(mem)
	if l.drained() {
		return true
	}
	for i := 0; i < core.CPUCyclesPerMemCycle; i++ {
		for _, c := range l.cores {
			c.Cycle(l.cpuCycle, mem)
		}
		l.cpuCycle++
	}
	l.ctrl.Tick(mem)
	l.drain(mem)
	for ch := 0; ch < l.geom.Channels; ch++ {
		for r := 0; r < l.geom.Ranks; r++ {
			if l.dev.RankBusy(ch, r, mem) {
				l.busy++
			}
		}
	}
	return false
}

// tracedStep is plainStep with a span around each call, then the pure
// horizon queries the event-driven engine would have made after the step.
func (l *StepLoop) tracedStep(mem int64) (done bool) {
	l.sampling, l.step = true, mem

	root := l.open(spStep, -1)
	s := l.openAt(spDeliver, root, l.spans[root].start)
	l.deliver(mem)
	t := l.close(s)
	if l.drained() {
		l.close(root)
		l.sampling = false
		return true
	}
	for i := 0; i < core.CPUCyclesPerMemCycle; i++ {
		for ci, c := range l.cores {
			if l.dropCycles && i == 0 && ci == 0 {
				continue
			}
			l.cur = l.openAt(spCPUCycle, root, t)
			c.Cycle(l.cpuCycle, mem)
			t = l.close(l.cur)
		}
		l.cpuCycle++
	}
	// The null span brackets nothing: its duration is what one span costs
	// in place (clock read, append, cold code), which aggregate subtracts
	// from every other span once per clock read inside it.
	t = l.close(l.openAt(spNull, root, t))
	s = l.openAt(spTick, root, t)
	l.ctrl.Tick(mem)
	t = l.close(s)
	s = l.openAt(spDrain, root, t)
	l.drain(mem)
	t = l.close(s)
	for ch := 0; ch < l.geom.Channels; ch++ {
		for r := 0; r < l.geom.Ranks; r++ {
			s = l.openAt(spRankBusy, root, t)
			if l.dev.RankBusy(ch, r, mem) {
				l.busy++
			}
			t = l.close(s)
		}
	}
	l.spans[root].end = t

	hz := l.openAt(spHorizon, -1, t)
	s = l.openAt(spNextEvent, hz, t)
	_ = l.ctrl.NextEventAt(mem)
	t = l.close(s)
	for _, c := range l.cores {
		s = l.openAt(spSkipBound, hz, t)
		_ = c.SkipBound()
		t = l.close(s)
	}
	s = l.openAt(spNextReady, hz, t)
	_ = l.dev.NextReadyAt(mem)
	l.spans[hz].end = l.close(s)
	l.sampling = false
	return false
}

// Run drives the loop to completion.
func (l *StepLoop) Run() (*LoopResult, error) {
	const safetyCap = int64(4) << 32
	l.t0 = time.Now()
	var mem int64
	for ; ; mem++ {
		if mem > safetyCap {
			return nil, fmt.Errorf("bench: step loop exceeded %d memory cycles", safetyCap)
		}
		var done bool
		if mem%l.every == 0 {
			done = l.tracedStep(mem)
		} else {
			done = l.plainStep(mem)
		}
		if done {
			break
		}
	}
	res := &LoopResult{
		Wall:      time.Since(l.t0),
		MemCycles: mem,
		Dev:       l.dev.Stats(),
		Ctrl:      l.ctrl.Stats(),
		Every:     l.every,
		Attempts:  l.mem.attempts,
		Rejects:   l.mem.rejects,
		spans:     l.spans,
	}
	for _, c := range l.cores {
		res.CoreDoneAt = append(res.CoreDoneAt, c.DoneAt())
		res.Retired += c.Retired()
		res.FetchStalls += c.FetchStalls
	}
	res.CycleCalls = mem * int64(core.CPUCyclesPerMemCycle) * int64(len(l.cores))
	res.aggregate()
	return res, nil
}

// SpanStat aggregates the spans of one name.
type SpanStat struct {
	Count int64 `json:"count"`
	// TotalNS is the raw inclusive time; NetNS the same with the cost of
	// the clock reads inside each span (the null span's median, once per
	// read) taken out, for the two roots the sum of their children's;
	// SelfNS is NetNS minus the children's NetNS.
	TotalNS int64 `json:"total_ns"`
	NetNS   int64 `json:"net_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// mean returns the mean inclusive net duration in nanoseconds.
func (s SpanStat) mean() float64 { return ratio(float64(s.NetNS), float64(s.Count)) }

// selfMean returns the mean self time in nanoseconds.
func (s SpanStat) selfMean() float64 { return ratio(float64(s.SelfNS), float64(s.Count)) }

// LoopResult is what one loop run produced.
type LoopResult struct {
	Every       int64 // sampling period
	Wall        time.Duration
	MemCycles   int64
	CoreDoneAt  []int64
	Retired     int64
	FetchStalls int64
	CycleCalls  int64
	// Attempts and Rejects count Enqueue calls and refusals on every
	// cycle, sampled or not.
	Attempts, Rejects int64
	Dev               dram.Stats
	Ctrl              controller.Stats
	// Stats is indexed by span kind; SampledSteps counts sim.step spans.
	Stats        [numSpanKinds]SpanStat
	SampledSteps int64

	spans []span
}

func (r *LoopResult) aggregate() {
	// The median, not the mean: what a span costs every time, without the
	// interrupts that now and then land in one.
	var nulls []float64
	for _, s := range r.spans {
		if s.kind == spNull {
			nulls = append(nulls, float64(s.end-s.start))
		}
	}
	perRead := median(nulls)

	// reads[i]: clock reads whose cost lies inside span i's interval. A
	// span's own closing read counts, except for the two roots, which
	// reuse their last child's; an Enqueue span also pays for its opening
	// read, inside its parent. Children follow their parents in the slice,
	// so one backward walk sums the subtrees.
	reads := make([]int32, len(r.spans))
	childNet := make([]int64, len(r.spans))
	net := make([]int64, len(r.spans))
	for i := len(r.spans) - 1; i >= 0; i-- {
		s := r.spans[i]
		if s.kind != spStep && s.kind != spHorizon {
			reads[i]++
		}
		net[i] = s.end - s.start - int64(perRead*float64(reads[i]))
		if net[i] < 0 {
			net[i] = 0
		}
		if s.kind == spStep || s.kind == spHorizon {
			// A root does nothing itself: it is the sum of its children,
			// which also keeps the layers' shares of a step summing to 1
			// where a child's net was floored at zero.
			net[i] = childNet[i]
		}
		if s.parent >= 0 {
			reads[s.parent] += reads[i]
			if s.kind == spEnqueue {
				reads[s.parent]++
			}
			childNet[s.parent] += net[i]
		}
	}
	for i, s := range r.spans {
		st := &r.Stats[s.kind]
		st.Count++
		st.TotalNS += s.end - s.start
		st.NetNS += net[i]
		if self := net[i] - childNet[i]; self > 0 {
			st.SelfNS += self
		}
	}
	r.SampledSteps = r.Stats[spStep].Count
}

// perStep returns a kind's inclusive net time per sampled step.
func (r *LoopResult) perStep(k spanKind) float64 {
	return ratio(float64(r.Stats[k].NetNS), float64(r.SampledSteps))
}

// Fidelity compares the loop with sim.Run of the same configuration: the
// run length, the reads served and every core's retire cycle must agree.
func (r *LoopResult) Fidelity(ref *sim.Result) error {
	if r.MemCycles != ref.MemCycles {
		return fmt.Errorf("bench: step loop ran %d memory cycles, sim.Run %d", r.MemCycles, ref.MemCycles)
	}
	if r.Ctrl.ReadsDone != ref.Ctrl.ReadsDone {
		return fmt.Errorf("bench: step loop served %d reads, sim.Run %d", r.Ctrl.ReadsDone, ref.Ctrl.ReadsDone)
	}
	if len(r.CoreDoneAt) != len(ref.Cores) {
		return fmt.Errorf("bench: step loop has %d cores, sim.Run %d", len(r.CoreDoneAt), len(ref.Cores))
	}
	for i, c := range ref.Cores {
		if r.CoreDoneAt[i] != c.DoneAtCPU {
			return fmt.Errorf("bench: core %d retired at CPU cycle %d in the step loop, %d in sim.Run", i, r.CoreDoneAt[i], c.DoneAtCPU)
		}
	}
	return nil
}

// maxFileSpans caps a trace file; the aggregates always cover every span.
const maxFileSpans = 50_000

type fileSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Step    int64  `json:"step"`
}

// WriteTrace writes the spans kept in memory to path (see README.md, "how
// to read a trace file").
func (r *LoopResult) WriteTrace(path, workload, variant string) error {
	n := len(r.spans)
	if n > maxFileSpans {
		n = maxFileSpans
	}
	out := struct {
		Workload    string              `json:"workload"`
		Variant     string              `json:"variant"`
		SampleEvery int64               `json:"sample_every"`
		MemCycles   int64               `json:"mem_cycles"`
		TotalSpans  int                 `json:"total_spans"`
		Truncated   bool                `json:"truncated"`
		ByName      map[string]SpanStat `json:"by_name"`
		Spans       []fileSpan          `json:"spans"`
	}{
		Workload: workload, Variant: variant, SampleEvery: r.Every, MemCycles: r.MemCycles,
		TotalSpans: len(r.spans), Truncated: n < len(r.spans),
		ByName: make(map[string]SpanStat, numSpanKinds), Spans: make([]fileSpan, n),
	}
	for k, st := range r.Stats {
		out.ByName[spanNames[k]] = st
	}
	for i, s := range r.spans[:n] {
		out.Spans[i] = fileSpan{ID: i, Name: spanNames[s.kind], StartNS: s.start, EndNS: s.end, Parent: s.parent, Step: s.step}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("bench: marshalling trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("bench: writing trace: %w", err)
	}
	return nil
}
