package repro

// One benchmark per table and figure of the paper's evaluation, plus
// engine-throughput benches and ablations of the design decisions called
// out in DESIGN.md. Each artifact bench rebuilds its table from the shared
// simulation grid (warmed once outside the timed region) and reports the
// headline quantity through b.ReportMetric; run with -v to see the full
// rows, or use cmd/experiments for the canonical reproduction.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/textplot"
	"repro/internal/wgen"
	"repro/internal/workload"
)

var (
	gridOnce  sync.Once
	gridSuite *experiments.Suite
	gridErr   error
)

// grid returns the fully-warmed 5000-job simulation grid, built once per
// test binary invocation.
func grid(b *testing.B) *experiments.Suite {
	b.Helper()
	gridOnce.Do(func() {
		gridSuite = experiments.NewSuite(0)
		gridErr = gridSuite.Prefetch(experiments.GridConfigs(), 0)
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridSuite
}

func logTable(b *testing.B, t textplot.Table) {
	b.Helper()
	b.Logf("\n%s", t.Render())
}

func BenchmarkTable1Workloads(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = experiments.Table1(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	base, err := s.Cell(experiments.Config{Workload: "SDSC"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(base.Results.AvgBSLD, "SDSC-avgBSLD")
}

func BenchmarkTable2GearSet(b *testing.B) {
	var t textplot.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table2()
	}
	logTable(b, t)
	b.ReportMetric(100*dvfs.PaperPowerModel().IdleFraction(), "idle-power-%")
}

// avgSavings computes the mean computational-energy saving (percent)
// across the five workloads at one parameter combination.
func avgSavings(b *testing.B, s *experiments.Suite, thr float64, wq int) float64 {
	b.Helper()
	sum := 0.0
	for _, w := range experiments.Workloads() {
		base, err := s.Cell(experiments.Config{Workload: w})
		if err != nil {
			b.Fatal(err)
		}
		c, err := s.Cell(experiments.Config{Workload: w, BSLDThr: thr, WQThr: wq})
		if err != nil {
			b.Fatal(err)
		}
		sum += 100 * (1 - c.Results.CompEnergy/base.Results.CompEnergy)
	}
	return sum / float64(len(experiments.Workloads()))
}

func BenchmarkFig3NormalizedEnergy(b *testing.B) {
	s := grid(b)
	var t0, t1 textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t0, err = experiments.Fig3(s, experiments.EnergyIdleZero); err != nil {
			b.Fatal(err)
		}
		if t1, err = experiments.Fig3(s, experiments.EnergyIdleLow); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t0)
	logTable(b, t1)
	// The paper's headline: 7–18% average savings depending on thresholds.
	b.ReportMetric(avgSavings(b, s, 1.5, 0), "avg-savings-%(1.5,0)")
	b.ReportMetric(avgSavings(b, s, 3, core.NoWQLimit), "avg-savings-%(3,NO)")
}

func BenchmarkFig4ReducedJobs(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig4(s); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	// Paper: Thunder reduces MORE jobs at threshold 1.5 than at 2 (WQ=4).
	lo, err := s.Cell(experiments.Config{Workload: "LLNLThunder", BSLDThr: 1.5, WQThr: 4})
	if err != nil {
		b.Fatal(err)
	}
	hi, err := s.Cell(experiments.Config{Workload: "LLNLThunder", BSLDThr: 2, WQThr: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(lo.Results.ReducedJobs), "thunder-reduced(1.5,4)")
	b.ReportMetric(float64(hi.Results.ReducedJobs), "thunder-reduced(2,4)")
}

func BenchmarkFig5AvgBSLD(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig5(s); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	c, err := s.Cell(experiments.Config{Workload: "CTC", BSLDThr: 3, WQThr: core.NoWQLimit})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(c.Results.AvgBSLD, "CTC-BSLD(3,NO)")
}

func BenchmarkFig6WaitTrace(b *testing.B) {
	s := grid(b)
	var chart string
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if chart, t, err = experiments.Fig6(s); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s\n%s", chart, t.Render())
	orig, dvfsRun, err := experiments.Fig6Series(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(orig[0].Results.AvgWait, "orig-wait-s")
	b.ReportMetric(dvfsRun[0].Results.AvgWait, "dvfs-wait-s")
}

func BenchmarkFig7EnlargedWQ0(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig7(s, experiments.EnergyIdleZero); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

func BenchmarkFig8EnlargedWQNo(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig8(s, experiments.EnergyIdleZero); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	// Paper: 20% enlargement cuts computational energy by ~25–30%.
	sum := 0.0
	for _, w := range experiments.Workloads() {
		base, err := s.Cell(experiments.Config{Workload: w})
		if err != nil {
			b.Fatal(err)
		}
		c, err := s.Cell(experiments.Config{Workload: w, BSLDThr: 2, WQThr: core.NoWQLimit, SizeFactor: 1.2})
		if err != nil {
			b.Fatal(err)
		}
		sum += 100 * (1 - c.Results.CompEnergy/base.Results.CompEnergy)
	}
	b.ReportMetric(sum/5, "avg-savings-%-at+20%")
}

func BenchmarkFig9EnlargedBSLD(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Fig9(s); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
	// Paper: SDSCBlue beats its no-DVFS baseline with only 10% more CPUs.
	base, err := s.Cell(experiments.Config{Workload: "SDSCBlue"})
	if err != nil {
		b.Fatal(err)
	}
	c, err := s.Cell(experiments.Config{Workload: "SDSCBlue", BSLDThr: 2, WQThr: 0, SizeFactor: 1.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(base.Results.AvgBSLD, "blue-base-BSLD")
	b.ReportMetric(c.Results.AvgBSLD, "blue-BSLD+10%")
}

func BenchmarkTable3WaitTimes(b *testing.B) {
	s := grid(b)
	var t textplot.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = experiments.Table3(s); err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, t)
}

// --- engine throughput ---------------------------------------------------

// benchTrace caches shortened traces for the throughput benches.
var (
	traceMu    sync.Mutex
	traceCache = map[string]*workload.Trace{}
)

func benchTrace(b *testing.B, name string, jobs int) *workload.Trace {
	b.Helper()
	key := fmt.Sprintf("%s/%d", name, jobs)
	traceMu.Lock()
	defer traceMu.Unlock()
	if tr, ok := traceCache[key]; ok {
		return tr
	}
	m, err := wgen.Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	m.Jobs = jobs
	tr, err := wgen.Generate(m)
	if err != nil {
		b.Fatal(err)
	}
	traceCache[key] = tr
	return tr
}

// BenchmarkSimulate measures raw scheduling throughput: one full EASY
// simulation of a 5000-job trace per iteration.
func BenchmarkSimulate(b *testing.B) {
	for _, name := range experiments.Workloads() {
		b.Run(name, func(b *testing.B) {
			tr := benchTrace(b, name, 5000)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc, err := scenario.Compile(scenario.Spec{Trace: tr})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sc.Execute(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSimulatePowerAware measures the power-aware scheduler's
// overhead relative to plain EASY (the frequency loop runs per decision).
func BenchmarkSimulatePowerAware(b *testing.B) {
	pol := ablationPolicy(b, core.Params{BSLDThreshold: 2, WQThreshold: core.NoWQLimit})
	tr := benchTrace(b, "CTC", 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := scenario.Compile(scenario.Spec{Trace: tr, GearPolicy: pol})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sc.Execute(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSweepSerialVsParallel measures the sweep pool's scaling on a
// realistic slice of the paper grid (2 workloads × 3 policies × 2 machine
// sizes, 1000-job traces). The parallel case should approach a NumCPU-fold
// speedup over workers=1 since runs are independent and CPU-bound; results
// are asserted identical, so the speedup is free of semantic drift.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	grid := sweep.Grid{
		Traces: []string{"CTC", "SDSCBlue"},
		Policies: []scenario.PolicyConfig{
			{},
			{BSLDThr: 2, WQThr: 16},
			{BSLDThr: 3, WQThr: core.NoWQLimit},
		},
		SizeFactors: []float64{1, 1.2},
	}
	resolver := &sweep.Resolver{Trace: sweep.CachedLoader(func(name string) (*workload.Trace, error) {
		return benchTrace(b, name, 1000), nil
	})}
	var serial []sweep.Result
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // all cores
	} {
		b.Run(tc.name, func(b *testing.B) {
			var last []sweep.Result
			for i := 0; i < b.N; i++ {
				results, err := sweep.Sweep(context.Background(), grid, resolver,
					&sweep.Pool{Workers: tc.workers})
				if err != nil {
					b.Fatal(err)
				}
				last = results
			}
			b.ReportMetric(float64(grid.Size())/b.Elapsed().Seconds()*float64(b.N), "runs/s")
			if tc.workers == 1 {
				serial = last
				return
			}
			if serial == nil {
				return // serial case filtered out by -bench
			}
			// Determinism check rides along: worker count must not change
			// a single metric.
			for i := range last {
				if last[i].Outcome.Results != serial[i].Outcome.Results {
					b.Fatalf("parallel result %d differs from serial", i)
				}
			}
		})
	}
}

// --- hot path at scale ----------------------------------------------------

// heapSampler rides along as an extra recorder and samples the live heap
// every sampleEvery scheduling passes, capturing the peak. It lets the
// large-scale benchmarks verify the streamed-arrival engine keeps memory
// O(running jobs) rather than holding the whole trace in the event heap.
type heapSampler struct {
	every int
	n     int
	peak  uint64
}

func (h *heapSampler) JobStarted(*sched.RunState, float64)  {}
func (h *heapSampler) JobFinished(*sched.RunState, float64) {}

func (h *heapSampler) PassEnd(now float64, queued, busy int) {
	h.n++
	if h.n%h.every != 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
}

// calibrationSteps sizes one calibration-kernel round; benchCalibration
// times calibrationRounds of them and keeps the fastest.
const (
	calibrationSteps  = 1_000_000
	calibrationRounds = 25
)

// calibrationKernel is the fixed, in-repo host-speed reference the
// throughput gates divide by: n synthetic completions through a binary
// min-heap of 4096 pending times, where each step pops the earliest time
// and pushes it back advanced by an xorshift-drawn duration. Its cost mix
// (heap sifts, unpredictable compares, dependent loads) resembles a
// replay's event loop, but it shares no code with the simulator, so a
// scheduler change cannot move it; only the host can. The heap fits a
// first-level data cache, so the kernel times the core, not the memory
// system.
func calibrationKernel(n int) float64 {
	const live = 1 << 12
	h := make([]float64, live)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>40) / (1 << 14)
	}
	for i := range h {
		h[i] = next() // any order: heapified below
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= live {
				return
			}
			m := l
			if r := l + 1; r < live && h[r] < h[l] {
				m = r
			}
			if h[i] <= h[m] {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := live/2 - 1; i >= 0; i-- {
		down(i)
	}
	for step := 0; step < n; step++ {
		h[0] += next() // pop the earliest completion, push its successor
		down(0)
	}
	return h[0]
}

// benchCalibration runs the calibration kernel as a sub-benchmark next to
// the measured replay, reporting kernel steps per second of the fastest
// round as "jobs/s", so a gate can divide the two rows of one bench
// invocation. The fastest of several short rounds is the least disturbed
// by other work on the host.
func benchCalibration(b *testing.B) {
	// Collect what earlier benchmarks left behind, so a background GC
	// cycle does not share the cores with the timed kernel.
	runtime.GC()
	b.ResetTimer()
	sink, best := 0.0, time.Duration(math.MaxInt64)
	for i := 0; i < b.N; i++ {
		best = min(best, fastestRound(calibrationRounds, func() { sink += calibrationKernel(calibrationSteps) }))
	}
	if sink <= 0 {
		b.Fatal("calibration kernel produced no time")
	}
	b.ReportMetric(calibrationSteps/best.Seconds(), "jobs/s")
}

// easyRounds and consRounds are how many replays a calibrated gate's
// optimized row times per iteration (about three seconds for either);
// like the calibration row it reports the fastest, since interference
// from other work on the host only ever slows a run.
const (
	easyRounds = 3
	consRounds = 9
)

// fastestRound times rounds calls of run and returns the shortest.
func fastestRound(rounds int, run func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		run()
		best = min(best, time.Since(start))
	}
	return best
}

// timed runs the benchmark's measured loop under the pprof label
// region=timed, so a CPU profile of the whole binary can be cut down to
// the timed region (go tool pprof -tagfocus=region=timed), leaving trace
// generation and scenario compilation out.
func timed(fn func()) {
	pprof.Do(context.Background(), pprof.Labels("region", "timed"), func(context.Context) { fn() })
}

// BenchmarkEASYMillion replays the Million stress preset, one million
// jobs under classic EASY, next to the calibration kernel; jobs/s is
// the fastest of easyRounds replays. The optimized/calibration jobs/s
// ratio divides host speed out; cmd/benchgate
// gate 1 holds it against BENCH_sched.json in CI, so an accidental
// O(running) step in the event loop, the run list or the pass (the
// regressions the streamed arrivals, the tombstoned run list and the
// pooled scratch removed) trips it on any host.
func BenchmarkEASYMillion(b *testing.B) {
	const jobs = 1_000_000
	b.Run(fmt.Sprintf("jobs=%d/calibration", jobs), benchCalibration)
	b.Run(fmt.Sprintf("jobs=%d/optimized", jobs), func(b *testing.B) {
		tr := benchTrace(b, "Million", jobs)
		b.ReportAllocs()
		b.ResetTimer()
		sampler := &heapSampler{every: 4096}
		peakEvents := 0
		best := time.Duration(math.MaxInt64)
		for i := 0; i < b.N; i++ {
			best = min(best, fastestRound(easyRounds, func() {
				sc, err := scenario.Compile(scenario.Spec{
					Trace:          tr,
					ExtraRecorders: []sched.Recorder{sampler},
				})
				if err != nil {
					b.Fatal(err)
				}
				out, err := sc.Execute()
				if err != nil {
					b.Fatal(err)
				}
				if out.Results.Jobs != jobs {
					b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, jobs)
				}
				peakEvents = out.PeakEvents
			}))
		}
		b.ReportMetric(jobs/best.Seconds(), "jobs/s")
		b.ReportMetric(float64(sampler.peak)/(1<<20), "peak-heap-MB")
		b.ReportMetric(float64(peakEvents), "peak-events")
	})
}

// BenchmarkConservativeFullMillion replays the FULL Million preset — all
// one million jobs, streamed so no trace slice exists — under
// conservative backfilling at system scale. No job ever waits (0 of
// 2,000,000 passes end with a job queued), so every pass starts its
// arrival against the free processor count and the replay never builds
// the availability profile or the release schedule; the compat modes that
// change those structures run the same code here and were retired — their
// ratios are held by BenchmarkConservativePolicyMillion, which queues.
// Results are recorded in BENCH_sched.json.
func BenchmarkConservativeFullMillion(b *testing.B) {
	b.Run(fmt.Sprintf("jobs=%d/optimized", wgen.MillionJobs), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src, err := wgen.Stream(wgen.Million())
			if err != nil {
				b.Fatal(err)
			}
			sc, err := scenario.Compile(scenario.Spec{Source: src, Variant: "conservative"})
			if err != nil {
				b.Fatal(err)
			}
			out, err := sc.Execute()
			if err != nil {
				b.Fatal(err)
			}
			if out.Results.Jobs != wgen.MillionJobs {
				b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, wgen.MillionJobs)
			}
		}
		b.ReportMetric(float64(wgen.MillionJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}

// BenchmarkConservativePolicyMillion replays the Million model cut to 67k
// jobs under conservative backfilling and the paper's policy (BSLDth 2,
// WQth 4): ~2% of passes end with jobs waiting, so the replay keeps
// loading the availability profile for blocked passes and running
// without it in between. It runs next to the calibration kernel; jobs/s
// is the fastest of consRounds replays. cmd/benchgate gate 3 holds the
// optimized/calibration jobs/s ratio against BENCH_sched.json in CI, so
// a replanning regression — a per-pass profile rebuild, a memmove-backed
// release schedule, flat reservation tiers — trips it on any host. The
// measured loop carries the region=timed pprof label.
func BenchmarkConservativePolicyMillion(b *testing.B) {
	const jobs = 67_000
	b.Run(fmt.Sprintf("jobs=%d/calibration", jobs), benchCalibration)
	b.Run(fmt.Sprintf("jobs=%d/optimized", jobs), func(b *testing.B) {
		sc, err := scenario.Compile(scenario.Spec{
			Workload: "Million",
			Jobs:     jobs,
			Variant:  "conservative",
			Policy:   scenario.PolicyConfig{BSLDThr: 2, WQThr: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		best := time.Duration(math.MaxInt64)
		timed(func() {
			for i := 0; i < b.N; i++ {
				best = min(best, fastestRound(consRounds, func() {
					out, err := sc.Execute()
					if err != nil {
						b.Fatal(err)
					}
					if out.Results.Jobs != jobs {
						b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, jobs)
					}
				}))
			}
		})
		b.ReportMetric(jobs/best.Seconds(), "jobs/s")
	})
}

// BenchmarkControllerMillion measures the power-controller layer's
// observe/decide overhead on the EASY Million replay: "off" runs without
// a controller, "capped" runs the PI power-cap controller at CapFrac=1 —
// the cap equals peak draw, so the controller meters the machine and runs
// its control law every pass but never actuates (the neutrality tests in
// internal/altpolicy prove the schedule is byte-identical, and the
// Results are asserted identical across the modes here). The capped/off
// jobs/s ratio is therefore pure controller-layer cost; cmd/benchgate
// gate 4 holds it against BENCH_sched.json in CI.
func BenchmarkControllerMillion(b *testing.B) {
	const jobs = 1_000_000
	var off *metrics.Results
	for _, mode := range []string{"off", "capped"} {
		b.Run(fmt.Sprintf("jobs=%d/%s", jobs, mode), func(b *testing.B) {
			tr := benchTrace(b, "Million", jobs)
			spec := scenario.Spec{Trace: tr}
			if mode == "capped" {
				spec.Controller = scenario.ControllerConfig{CapFrac: 1}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var last scenario.Outcome
			for i := 0; i < b.N; i++ {
				sc, err := scenario.Compile(spec)
				if err != nil {
					b.Fatal(err)
				}
				out, err := sc.Execute()
				if err != nil {
					b.Fatal(err)
				}
				if out.Results.Jobs != jobs {
					b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, jobs)
				}
				last = out
			}
			b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
			if mode == "off" {
				r := last.Results
				off = &r
			} else if off != nil && last.Results != *off {
				b.Fatalf("capped replay diverged from controller-free:\n%+v\n%+v", last.Results, *off)
			}
		})
	}
}

// BenchmarkEASYPolicyMillion replays the Million model cut to 67k jobs
// under classic EASY and the paper's policy (BSLDth 2, WQth 4): the queued
// regime the policy acts in, ~18k jobs running while ~2% of passes end
// with jobs waiting, so every blocked pass runs the shadow sweep over the
// release schedule. The never-queued EASY Million replays above never
// reach that sweep. peak-heap-MB is the replay's own high-water above
// the heap earlier benchmarks left. The test-only reference scheduler
// pins the schedules this path produces (TestScheduleMatchesOracle in
// internal/sched). Results are recorded in BENCH_sched.json;
// TestEASYReleaseIndexLazyAndCurrent in internal/sched is the exact guard
// against a per-pass re-sort. The measured loop carries the region=timed
// pprof label.
func BenchmarkEASYPolicyMillion(b *testing.B) {
	const jobs = 67_000
	tightGC(b)
	heap := metrics.NewHeapWatermark(0)
	sc, err := scenario.Compile(scenario.Spec{
		Workload:       "Million",
		Jobs:           jobs,
		Policy:         scenario.PolicyConfig{BSLDThr: 2, WQThr: 4},
		ExtraRecorders: []sched.Recorder{heap},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("jobs=%d/optimized", jobs), func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		timed(func() {
			for i := 0; i < b.N; i++ {
				out, err := sc.Execute()
				if err != nil {
					b.Fatal(err)
				}
				if out.Results.Jobs != jobs {
					b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, jobs)
				}
			}
		})
		b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
		b.ReportMetric(heap.PeakMB(), "peak-heap-MB")
	})
}

// BenchmarkConservativeTenMillion replays the full TenMillion preset
// under conservative backfilling through the streaming pipeline —
// replanning at the scale the streamed pipeline opened for EASY.
func BenchmarkConservativeTenMillion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src, err := wgen.Stream(wgen.TenMillion())
		if err != nil {
			b.Fatal(err)
		}
		sc, err := scenario.Compile(scenario.Spec{Source: src, Variant: "conservative"})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sc.Execute()
		if err != nil {
			b.Fatal(err)
		}
		if out.Results.Jobs != wgen.TenMillionJobs {
			b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, wgen.TenMillionJobs)
		}
	}
	b.ReportMetric(float64(wgen.TenMillionJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkScenarioConcurrentReplay replays one shared compiled Million
// scenario from 8 goroutines at once: the scenario layer's contract is
// that a compiled scenario is immutable and goroutine-safe, so N
// concurrent executions walk one workload arena through independent
// cursors and must produce bit-identical Results (asserted inside the
// benchmark; the -race CI job runs the equivalent correctness test in
// internal/scenario). The reported jobs/s is the aggregate across the 8
// replicas — the what-if server's throughput model for a cache-cold
// burst of identical queries. Results are recorded in BENCH_sched.json.
func BenchmarkScenarioConcurrentReplay(b *testing.B) {
	const replicas = 8
	sc, err := scenario.Compile(scenario.Spec{
		Workload:    "Million",
		Materialize: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !sc.ConcurrentSafe() {
		b.Fatal("compiled scenario not concurrent-safe")
	}
	jobs := sc.Jobs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := make([]scenario.Outcome, replicas)
		var wg sync.WaitGroup
		for r := 0; r < replicas; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				out, err := sc.Execute()
				if err != nil {
					b.Errorf("replica %d: %v", r, err)
					return
				}
				outs[r] = out
			}(r)
		}
		wg.Wait()
		if b.Failed() {
			b.FailNow()
		}
		for r := 1; r < replicas; r++ {
			if outs[r].Results != outs[0].Results {
				b.Fatalf("replica %d diverged from replica 0", r)
			}
		}
		if outs[0].Results.Jobs != jobs {
			b.Fatalf("completed %d jobs, want %d", outs[0].Results.Jobs, jobs)
		}
	}
	b.ReportMetric(float64(replicas*jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// tightGC prepares a heap-measuring benchmark: it drops the shared trace
// cache (other benches' cached Million traces would otherwise sit in the
// live set) and pins the GC growth target to 20%, so the measured
// high-water tracks live memory instead of collection lag — which under
// the default GOGC=100 is proportional to whatever previous benchmarks
// left alive, not to this run's footprint. The cache refills on demand
// and the GC target is restored when the benchmark ends.
func tightGC(b *testing.B) {
	b.Helper()
	traceMu.Lock()
	traceCache = map[string]*workload.Trace{}
	traceMu.Unlock()
	old := debug.SetGCPercent(20)
	b.Cleanup(func() { debug.SetGCPercent(old) })
}

// BenchmarkStreamingMillionHeap measures the tentpole of the streaming
// workload pipeline: the peak live heap of a Million-preset 1M-job EASY
// replay, materialized (trace generated upfront, scheduler reads the
// slice) versus streamed (wgen.Stream feeds the scheduler job by job).
// Each sub-run garbage-collects first and reports the heap high-water
// RELATIVE to that baseline, so the numbers isolate the replay's own
// footprint from whatever other benchmarks left alive.
//
// trace-MB captures the workload-resident component alone, sampled right
// after the workload is built and before the simulation starts: the
// materialized slice costs ~90 MB where the streaming source holds only
// RNG cursors — the O(trace) → O(1) conversion the refactor is about.
// The run results are asserted identical across modes, so the memory win
// is free of semantic drift. cmd/benchgate gates the streamed
// peak-heap-MB against BENCH_sched.json in CI.
func BenchmarkStreamingMillionHeap(b *testing.B) {
	tightGC(b)
	var materialized *metrics.Results
	for _, mode := range []string{"materialized", "streamed"} {
		b.Run(fmt.Sprintf("jobs=%d/%s", wgen.MillionJobs, mode), func(b *testing.B) {
			var last scenario.Outcome
			var peakMB, traceMB float64
			for i := 0; i < b.N; i++ {
				heap := metrics.NewHeapWatermark(0)
				spec := scenario.Spec{ExtraRecorders: []sched.Recorder{heap}}
				if mode == "materialized" {
					tr, err := wgen.Generate(wgen.Million())
					if err != nil {
						b.Fatal(err)
					}
					spec.Trace = tr
				} else {
					src, err := wgen.Stream(wgen.Million())
					if err != nil {
						b.Fatal(err)
					}
					spec.Source = src
				}
				heap.Sample()
				traceMB = heap.PeakMB()
				sc, err := scenario.Compile(spec)
				if err != nil {
					b.Fatal(err)
				}
				out, err := sc.Execute()
				if err != nil {
					b.Fatal(err)
				}
				heap.Sample()
				peakMB = heap.PeakMB()
				last = out
			}
			b.ReportMetric(float64(wgen.MillionJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
			b.ReportMetric(peakMB, "peak-heap-MB")
			b.ReportMetric(traceMB, "trace-MB")
			b.ReportMetric(float64(last.PeakEvents), "peak-events")
			if mode == "materialized" {
				r := last.Results
				materialized = &r
			} else if materialized != nil && last.Results != *materialized {
				b.Fatalf("streamed replay diverged from materialized:\n%+v\n%+v", last.Results, *materialized)
			}
		})
	}
}

// BenchmarkStreamingTenMillionReplay replays the full TenMillion preset —
// ten million jobs, a workload whose materialized form (~1 GB) does not
// fit a CI runner — through the streaming pipeline, proving the scale the
// refactor opens: generation, scheduling and metrics all run in
// O(running jobs) live memory.
func BenchmarkStreamingTenMillionReplay(b *testing.B) {
	tightGC(b)
	for i := 0; i < b.N; i++ {
		heap := metrics.NewHeapWatermark(0)
		src, err := wgen.Stream(wgen.TenMillion())
		if err != nil {
			b.Fatal(err)
		}
		sc, err := scenario.Compile(scenario.Spec{Source: src, ExtraRecorders: []sched.Recorder{heap}})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sc.Execute()
		if err != nil {
			b.Fatal(err)
		}
		heap.Sample()
		if out.Results.Jobs != wgen.TenMillionJobs {
			b.Fatalf("completed %d jobs, want %d", out.Results.Jobs, wgen.TenMillionJobs)
		}
		b.ReportMetric(heap.PeakMB(), "peak-heap-MB")
		b.ReportMetric(float64(out.PeakEvents), "peak-events")
	}
	b.ReportMetric(float64(wgen.TenMillionJobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// --- ablations ------------------------------------------------------------

const ablationJobs = 2000

// ablationPolicy builds the paper's policy over the paper's gears at the
// paper's β, for ablations whose knobs scenario.PolicyConfig does not
// carry (or that hold the policy's β fixed while the run's varies).
func ablationPolicy(b *testing.B, params core.Params) sched.GearPolicy {
	b.Helper()
	gears := dvfs.PaperGearSet()
	pol, err := core.NewPolicy(params, gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
	if err != nil {
		b.Fatal(err)
	}
	return pol
}

// ablationRun compiles spec and reports the policy outcome of b.N
// executions (compilation outside the timed loop) with its no-DVFS
// baseline on the same machine, executed once untimed.
func ablationRun(b *testing.B, spec scenario.Spec) (out, base scenario.Outcome) {
	b.Helper()
	sc, err := scenario.Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	if base, err = sc.WithBaseline().Execute(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = sc.Execute(); err != nil {
			b.Fatal(err)
		}
	}
	return out, base
}

// BenchmarkAblationStrictBackfillBSLD compares the default lenient
// backfill semantics against the literal Figure 2 pseudo-code on the
// saturated SDSC workload, where the difference is largest (DESIGN.md).
func BenchmarkAblationStrictBackfillBSLD(b *testing.B) {
	tr := benchTrace(b, "SDSC", ablationJobs)
	for _, strict := range []bool{false, true} {
		name := "lenient"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			pol := ablationPolicy(b, core.Params{
				BSLDThreshold: 2, WQThreshold: core.NoWQLimit, StrictBackfillBSLD: strict,
			})
			out, _ := ablationRun(b, scenario.Spec{Trace: tr, GearPolicy: pol})
			b.ReportMetric(out.Results.AvgWait, "avg-wait-s")
			b.ReportMetric(out.Results.AvgBSLD, "avg-BSLD")
		})
	}
}

// BenchmarkAblationBeta sweeps the β dilation sensitivity the paper fixes
// at 0.5 (its Section 7 future work calls for a per-job β analysis). The
// policy keeps predicting with the paper's β=0.5 while the run dilates
// with the swept β: the ablation measures a mis-modelled β.
func BenchmarkAblationBeta(b *testing.B) {
	tr := benchTrace(b, "SDSCBlue", ablationJobs)
	for _, beta := range []float64{0.25, 0.5, 0.75, 1.0} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			pol := ablationPolicy(b, core.Params{BSLDThreshold: 2, WQThreshold: core.NoWQLimit})
			out, base := ablationRun(b, scenario.Spec{Trace: tr, GearPolicy: pol, Beta: &beta})
			b.ReportMetric(100*out.Results.CompEnergy/base.Results.CompEnergy, "energy-%")
			b.ReportMetric(out.Results.AvgBSLD, "avg-BSLD")
		})
	}
}

// BenchmarkAblationDynamicBoost measures the paper's future-work
// extension: raising running reduced jobs to Ftop once the queue grows.
func BenchmarkAblationDynamicBoost(b *testing.B) {
	tr := benchTrace(b, "SDSCBlue", ablationJobs)
	for _, boost := range []bool{false, true} {
		name := "off"
		if boost {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			out, base := ablationRun(b, scenario.Spec{Trace: tr, Policy: scenario.PolicyConfig{
				BSLDThr: 2, WQThr: core.NoWQLimit, Boost: boost, BoostWQ: 16,
			}})
			b.ReportMetric(100*out.Results.CompEnergy/base.Results.CompEnergy, "energy-%")
			b.ReportMetric(out.Results.AvgWait, "avg-wait-s")
		})
	}
}

// BenchmarkAblationWQCounting explores the WQsize interpretation: counting
// the job under decision itself is equivalent to lowering WQthreshold by
// one, so the pair (1, 0) brackets the ambiguity at the paper's strictest
// setting (DESIGN.md).
func BenchmarkAblationWQCounting(b *testing.B) {
	tr := benchTrace(b, "CTC", ablationJobs)
	for _, wq := range []int{0, 1} {
		b.Run(fmt.Sprintf("wq=%d", wq), func(b *testing.B) {
			out, base := ablationRun(b, scenario.Spec{Trace: tr,
				Policy: scenario.PolicyConfig{BSLDThr: 2, WQThr: wq}})
			b.ReportMetric(100*out.Results.CompEnergy/base.Results.CompEnergy, "energy-%")
			b.ReportMetric(float64(out.Results.ReducedJobs), "reduced-jobs")
		})
	}
}

// BenchmarkAblationGearSet restricts the gear set to its upper half,
// quantifying how much of the savings comes from the deepest gears. Both
// sets share the top gear, so the no-DVFS baselines are the same run.
func BenchmarkAblationGearSet(b *testing.B) {
	tr := benchTrace(b, "LLNLAtlas", ablationJobs)
	full := dvfs.PaperGearSet()
	for _, tc := range []struct {
		name  string
		gears dvfs.GearSet
	}{
		{"all-six", full},
		{"top-three", full.AtOrAbove(1.7)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			out, base := ablationRun(b, scenario.Spec{Trace: tr, Gears: tc.gears,
				Policy: scenario.PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}})
			b.ReportMetric(100*out.Results.CompEnergy/base.Results.CompEnergy, "energy-%")
		})
	}
}

// BenchmarkAblationBasePolicy runs the frequency assignment on top of the
// three base scheduling policies, supporting the paper's remark that the
// algorithm "can be applied with any parallel job scheduling policy".
func BenchmarkAblationBasePolicy(b *testing.B) {
	tr := benchTrace(b, "CTC", ablationJobs)
	for _, variant := range []string{"easy", "fcfs", "conservative"} {
		b.Run(variant, func(b *testing.B) {
			out, _ := ablationRun(b, scenario.Spec{Trace: tr, Variant: variant,
				Policy: scenario.PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}})
			b.ReportMetric(out.Results.AvgBSLD, "avg-BSLD")
			b.ReportMetric(out.Results.AvgWait, "avg-wait-s")
		})
	}
}
