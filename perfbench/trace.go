package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// layers holds one traced repetition's counts and spans, taken at the
// seams the benchmark can wrap from outside the program: the workload
// source, the gear policy, the policy's feasibility callback into the
// scheduler, and the scheduler's recorder callbacks.
type layers struct {
	execNs int64 // scenario.Execute spans

	nextCalls, nextNs int64 // JobSource.Next

	reserveCalls, backfillCalls int64
	decisions, reduced          int64 // gear decisions made, and those below the top gear
	policyNs                    int64 // ReserveGear + BackfillGear spans, feasible children included
	feasibleCalls, feasibleNs   int64

	passes, queuedPasses, queueSum, queueMax int64
	starts, regears                          int64
	recorderNs                               int64

	peakEvents int64

	cellNs []int64 // per-cell spans (paper_grid)
	poolNs int64   // wall time of the cells' pool (paper_grid)
}

// add folds a grid cell's counts and spans into l.
func (l *layers) add(o *layers) {
	l.execNs += o.execNs
	l.nextCalls += o.nextCalls
	l.nextNs += o.nextNs
	l.reserveCalls += o.reserveCalls
	l.backfillCalls += o.backfillCalls
	l.decisions += o.decisions
	l.reduced += o.reduced
	l.policyNs += o.policyNs
	l.feasibleCalls += o.feasibleCalls
	l.feasibleNs += o.feasibleNs
	l.passes += o.passes
	l.queuedPasses += o.queuedPasses
	l.queueSum += o.queueSum
	l.queueMax = max(l.queueMax, o.queueMax)
	l.starts += o.starts
	l.regears += o.regears
	l.recorderNs += o.recorderNs
	l.peakEvents = max(l.peakEvents, o.peakEvents)
}

// medianLayers is the traced repetition whose Execute span is the median;
// counts repeat exactly across repetitions, spans do not.
func medianLayers(ls []layers) layers {
	if len(ls) == 0 {
		return layers{}
	}
	s := append([]layers(nil), ls...)
	sort.Slice(s, func(i, j int) bool { return s[i].execNs < s[j].execNs })
	return s[len(s)/2]
}

func since(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }

// tracedSource times every job the scheduler pulls from a workload. It
// forwards workload.Counted, the one optional interface of the source it
// wraps (see sameSourceSeams).
type tracedSource struct {
	src workload.JobSource
	countedFwd
	l *layers
}

type countedFwd struct{ c workload.Counted }

func (f countedFwd) Len() int { return f.c.Len() }

func (s *tracedSource) Name() string { return s.src.Name() }
func (s *tracedSource) CPUs() int    { return s.src.CPUs() }
func (s *tracedSource) Reset() error { return s.src.Reset() }
func (s *tracedSource) Err() error   { return s.src.Err() }

func (s *tracedSource) Next() (workload.Job, bool) {
	t0 := time.Now()
	j, ok := s.src.Next()
	s.l.nextNs += since(t0)
	s.l.nextCalls++
	return j, ok
}

// sourceSeams reports which optional interfaces the scheduler and the
// scenario compiler look for a source has: workload.Counted and
// workload.PtrSource.
func sourceSeams(s workload.JobSource) [2]bool {
	_, counted := s.(workload.Counted)
	_, ptr := s.(workload.PtrSource)
	return [2]bool{counted, ptr}
}

// sameSourceSeams fails unless the wrapper w has exactly src's optional
// interfaces, so the scheduler takes the same path through the wrapper as
// around it.
func sameSourceSeams(w, src workload.JobSource) error {
	if got, want := sourceSeams(w), sourceSeams(src); got != want {
		return fmt.Errorf("source wrapper has optional interfaces %v (Counted, PtrSource), %T has %v", got, src, want)
	}
	return nil
}

// traceSource wraps src in a tracedSource.
func traceSource(src workload.JobSource, l *layers) (workload.JobSource, error) {
	c, _ := src.(workload.Counted)
	t := &tracedSource{src: src, countedFwd: countedFwd{c}, l: l}
	if err := sameSourceSeams(t, src); err != nil {
		return nil, err
	}
	return t, nil
}

// tracedPolicy counts and times the scheduler's calls into a gear policy
// and the policy's calls back into the scheduler's feasibility test. It
// forwards sched.EstMonotonePolicy and sched.PowerController, the
// optional interfaces of core.Policy (see tracePolicy).
type tracedPolicy struct {
	p   sched.GearPolicy
	top dvfs.Gear
	l   *layers
	monotoneFwd
	controllerFwd

	// feasible is the scheduler's callback for the BackfillGear call in
	// progress; timedFeasible, bound once, wraps it without allocating a
	// closure per call. One execution drives a policy from one goroutine.
	feasible      func(dvfs.Gear) bool
	timedFeasible func(dvfs.Gear) bool
}

type monotoneFwd struct{}

func (monotoneFwd) EstMonotone() {}

// controllerFwd forwards the per-pass controller seam untimed: the
// scheduler calls it on every pass, and for the paper's policy without
// the boost extension it returns at once.
type controllerFwd struct{ c sched.PowerController }

func (f controllerFwd) Bind(sys *sched.System)                     { f.c.Bind(sys) }
func (f controllerFwd) ControlPass(sys *sched.System, now float64) { f.c.ControlPass(sys, now) }

func (t *tracedPolicy) Name() string { return t.p.Name() }

func (t *tracedPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	t0 := time.Now()
	g := t.p.ReserveGear(j, start, now, wqOthers)
	t.l.policyNs += since(t0)
	t.l.reserveCalls++
	t.l.decisions++
	if g != t.top {
		t.l.reduced++
	}
	return g
}

func (t *tracedPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	t0 := time.Now()
	t.feasible = feasible
	g, ok := t.p.BackfillGear(j, now, wqOthers, t.timedFeasible)
	t.feasible = nil
	t.l.policyNs += since(t0)
	t.l.backfillCalls++
	if ok {
		t.l.decisions++
		if g != t.top {
			t.l.reduced++
		}
	}
	return g, ok
}

func (t *tracedPolicy) feasibleSpan(g dvfs.Gear) bool {
	t0 := time.Now()
	r := t.feasible(g)
	t.l.feasibleNs += since(t0)
	t.l.feasibleCalls++
	return r
}

// policySeams reports which optional interfaces the scheduler and the
// scenario compiler look for a gear policy has: sched.EstMonotonePolicy,
// sched.PowerController and sched.PolicyCloner.
func policySeams(p sched.GearPolicy) [3]bool {
	_, mono := p.(sched.EstMonotonePolicy)
	_, ctrl := p.(sched.PowerController)
	_, clone := p.(sched.PolicyCloner)
	return [3]bool{mono, ctrl, clone}
}

// tracePolicy wraps p. It fails unless the wrapper has exactly p's
// optional interfaces: dropping EstMonotone would make conservative
// replanning do different work, and dropping PowerController would skip
// the policy's per-pass hook, so the trace would measure another program.
func tracePolicy(p sched.GearPolicy, top dvfs.Gear, l *layers) (sched.GearPolicy, error) {
	pc, _ := p.(sched.PowerController)
	t := &tracedPolicy{p: p, top: top, l: l, controllerFwd: controllerFwd{pc}}
	t.timedFeasible = t.feasibleSpan
	if got, want := policySeams(t), policySeams(p); got != want {
		return nil, fmt.Errorf("policy wrapper has optional interfaces %v (EstMonotone, PowerController, PolicyCloner), %T has %v", got, p, want)
	}
	return t, nil
}

// tracedRecorder counts the scheduler's lifecycle and pass callbacks. It
// keeps no *sched.RunState past a callback: run states are pooled.
type tracedRecorder struct{ l *layers }

func (r *tracedRecorder) JobStarted(*sched.RunState, float64) {
	t0 := time.Now()
	r.l.starts++
	r.l.recorderNs += since(t0)
}

func (r *tracedRecorder) JobFinished(*sched.RunState, float64) {
	t0 := time.Now()
	r.l.recorderNs += since(t0)
}

func (r *tracedRecorder) JobRegeared(*sched.RunState, dvfs.Gear, float64) {
	t0 := time.Now()
	r.l.regears++
	r.l.recorderNs += since(t0)
}

func (r *tracedRecorder) PassEnd(_ float64, queued, _ int) {
	t0 := time.Now()
	r.l.passes++
	if queued > 0 {
		r.l.queuedPasses++
	}
	r.l.queueSum += int64(queued)
	r.l.queueMax = max(r.l.queueMax, int64(queued))
	r.l.recorderNs += since(t0)
}

// layerMetric is one row of the per-layer table.
type layerMetric struct {
	name  string
	value float64
	unit  string
}

// layerReport turns a run's traces, profile and runtime counters into the
// per-layer metrics, in table order. Metrics a workload does not exercise
// read 0. Span times include reading the clock, some tens of nanoseconds
// a span; where calls are that cheap (paper_grid's ~25M policy and
// feasibility calls) the clock dominates core.self_s, and the untraced
// profile's cpu_share figures are the better split of time.
func layerReport(l layers, prof moduleSamples, compileS, allocPerJob, gcCycles float64,
	workers int, renderS, overhead float64) []layerMetric {
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	var cellMs []float64
	var busyNs int64
	for _, ns := range l.cellNs {
		cellMs = append(cellMs, float64(ns)/1e6)
		busyNs += ns
	}
	rows := []layerMetric{
		{"wgen.next_calls", float64(l.nextCalls), "count"},
		{"wgen.next_s", sec(l.nextNs), "s"},
		{"core.reserve_calls", float64(l.reserveCalls), "count"},
		{"core.backfill_calls", float64(l.backfillCalls), "count"},
		{"core.reduced_frac", frac(l.reduced, l.decisions), "ratio"},
		{"core.self_s", sec(l.policyNs - l.feasibleNs), "s"},
		{"sched.passes", float64(l.passes), "count"},
		{"sched.queued_pass_frac", frac(l.queuedPasses, l.passes), "ratio"},
		{"sched.queue_mean", frac(l.queueSum, l.passes), "jobs"},
		{"sched.queue_max", float64(l.queueMax), "jobs"},
		{"sched.starts", float64(l.starts), "count"},
		{"sched.regears", float64(l.regears), "count"},
		{"sched.feasible_calls", float64(l.feasibleCalls), "count"},
		{"sched.feasible_s", sec(l.feasibleNs), "s"},
		{"sched.peak_events", float64(l.peakEvents), "count"},
		{"sched.self_s", sec(l.execNs - l.nextNs - l.policyNs - l.recorderNs), "s"},
		{"experiments.cell_ms_p50", quantile(cellMs, 0.5), "ms"},
		{"experiments.cell_ms_p90", quantile(cellMs, 0.9), "ms"},
		{"experiments.render_s", renderS, "s"},
		{"sweep.busy_frac", frac(busyNs, int64(workers)*l.poolNs), "ratio"},
		{"scenario.compile_s", compileS, "s"},
	}
	for _, m := range profiledModules {
		rows = append(rows, layerMetric{m + ".cpu_share", prof.share(m), "ratio"})
	}
	return append(rows,
		layerMetric{"runtime.alloc_bytes_per_job", allocPerJob, "B/job"},
		layerMetric{"runtime.gc_cycles", gcCycles, "count"},
		layerMetric{"bench.trace_overhead_frac", overhead, "ratio"},
	)
}

func printTable(workload string, rows []layerMetric) {
	fmt.Printf("per-layer metrics, workload %s\n", workload)
	for _, r := range rows {
		fmt.Printf("  %-28s %16.6g %s\n", r.name, r.value, r.unit)
	}
}
