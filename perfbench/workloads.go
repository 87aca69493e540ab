package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// Why each workload is in the benchmark (BENCHMARK.json carries the
// one-line version). The queue-regime evidence was measured on a 2-core
// Xeon container (go1.24, GOMAXPROCS=2) with a PassObserver counting the
// scheduling passes that end with jobs waiting.
//
// paper_grid is the reproduction's own traffic: short EASY runs on the
// five paper machines with deep queues, most of them under the policy.
// GridConfigs lists 135 cells; ten are duplicates (the enlarged grid's
// size-1.0 points are paper-grid cells), so 125 simulations run. It is
// the only workload where compile/arena sharing and the sweep pool
// matter. It never touches internal/profile (no conservative cells), and
// its cells replay materialized traces, so wgen streaming is idle. About
// 5 s per RunAll on that host, most CPU in cluster First-Fit and sched
// release sorting.
//
// million_conservative runs ~15.6k jobs at once and queues none: 0 of
// its 2,000,000 scheduling passes end with a waiting job. It loads
// internal/profile base maintenance, sim's event heap, the incremental
// release index and streamed wgen generation, and skips backfilling, the
// EASY shadow sweep and the gear policy. It continues the FULL Million
// row of BENCH_sched.json.
//
// million_policy is the paper's regime at production machine size. Its
// length sits just past a cliff: with the Million model cut to N jobs
// (same offered load over a compressed span), EASY under BSLDth 2 and
// WQth 4 queues in 0% of passes at 50k-65k jobs (~0.13 s a run), 0.3% at
// 66k (1.2 s), 2.0% at 67k (5.0 s), 4.2% at 70k (10-13 s) and 16% at 80k
// (49 s). At 67k the shadow sweep and core.Policy's ReserveGear and
// BackfillGear run against ~18k running jobs. A Million model drawn with
// another generator seed moves the cliff: at 67k jobs, seeds +1..+3 took
// 4.3 s, 17.6 s and 7.4 s, which is why --seed leaves the trace alone.

// millionPolicyJobs is million_policy's trace length (see above).
const millionPolicyJobs = 67_000

// pinsJSON holds the Million workloads' Results as this code produced
// them; a change to the schedules they describe must update it and say
// why.
//
//go:embed pins.json
var pinsJSON []byte

// pin is the part of metrics.Results a Million run is checked against.
type pin struct {
	Jobs        int     `json:"jobs"`
	AvgBSLD     float64 `json:"avg_bsld"`
	AvgWait     float64 `json:"avg_wait"`
	CompEnergy  float64 `json:"comp_energy"`
	ReducedJobs int     `json:"reduced_jobs"`
}

// pinTolerance matches the golden tests': loose enough for floating-point
// reassociation across Go releases, far tighter than any schedule change.
const pinTolerance = 1e-10

func pinOf(r metrics.Results) pin {
	return pin{Jobs: r.Jobs, AvgBSLD: r.AvgBSLD, AvgWait: r.AvgWait, CompEnergy: r.CompEnergy, ReducedJobs: r.ReducedJobs}
}

func (p pin) matches(q pin) bool {
	close := func(a, b float64) bool {
		if b == 0 {
			return a == 0
		}
		return math.Abs(a-b)/math.Abs(b) <= pinTolerance
	}
	return p.Jobs == q.Jobs && p.ReducedJobs == q.ReducedJobs &&
		close(p.AvgBSLD, q.AvgBSLD) && close(p.AvgWait, q.AvgWait) && close(p.CompEnergy, q.CompEnergy)
}

func loadPin(name string) (pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return pin{}, fmt.Errorf("pins.json: %w", err)
	}
	p, ok := pins[name]
	if !ok {
		return pin{}, fmt.Errorf("pins.json has no entry for %s", name)
	}
	return p, nil
}

// million is a Million-preset workload: one compiled scenario executed
// per repetition.
type million struct {
	spec     scenario.Spec
	sc       *scenario.Scenario
	compile  float64
	want     pin
	untraced metrics.Results // the latest untraced repetition's
}

func setupMillionConservative(int64, bool) (bench, error) {
	return setupMillion("million_conservative", scenario.Spec{Workload: "Million", Variant: "conservative"})
}

func setupMillionPolicy(int64, bool) (bench, error) {
	return setupMillion("million_policy", scenario.Spec{Workload: "Million", Jobs: millionPolicyJobs,
		Policy: scenario.PolicyConfig{BSLDThr: 2, WQThr: 4}})
}

// setupMillion compiles the spec: for a streamed preset that resolves the
// model and runs the stream prototype's RNG summing passes.
func setupMillion(name string, spec scenario.Spec) (bench, error) {
	want, err := loadPin(name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sc, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	return &million{spec: spec, sc: sc, compile: time.Since(t0).Seconds(), want: want}, nil
}

func (m *million) jobs() int         { return m.sc.Jobs() }
func (m *million) compileS() float64 { return m.compile }
func (m *million) parallelism() int  { return 1 }

func (m *million) run(*rep) error {
	out, err := m.sc.Execute()
	if err != nil {
		return err
	}
	if got := pinOf(out.Results); !got.matches(m.want) {
		return fmt.Errorf("Results %+v, pinned %+v", got, m.want)
	}
	m.untraced = out.Results
	return nil
}

// traced replays the same run with every public seam decorated: the
// workload through a JobSource wrapper over the compiled scenario's own
// cursors, the paper's policy (when the run has one) through a
// GearPolicy wrapper, and the scheduler's callbacks through an extra
// recorder.
func (m *million) traced(l *layers) error {
	spec := scenario.Spec{
		Factory: func() (workload.JobSource, error) {
			src, err := m.sc.NewSource()
			if err != nil {
				return nil, err
			}
			return traceSource(src, l)
		},
		Variant:        m.spec.Variant,
		ExtraRecorders: []sched.Recorder{&tracedRecorder{l: l}},
	}
	if !m.spec.Policy.Baseline() {
		pol, err := paperPolicyObject(m.spec.Policy)
		if err != nil {
			return err
		}
		if spec.GearPolicy, err = tracePolicy(pol, dvfs.PaperGearSet().Top(), l); err != nil {
			return err
		}
	}
	sc, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	if sc.CPUs() != m.sc.CPUs() {
		return fmt.Errorf("traced scenario has %d CPUs, untraced %d", sc.CPUs(), m.sc.CPUs())
	}
	t0 := time.Now()
	out, err := sc.Execute()
	l.execNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	l.peakEvents = max(l.peakEvents, int64(out.PeakEvents))
	if out.Results != m.untraced {
		return fmt.Errorf("traced Results %+v differ from untraced %+v", out.Results, m.untraced)
	}
	return nil
}

// probeHeap replays the run with the simulation stopping for a full GC
// every jobs/heapProbeCycles jobs it pulls, and returns the largest live
// heap those cycles marked. The simulation is the only goroutine that
// allocates, and it waits in runtime.GC, so each cycle marks exactly the
// heap live at that job and no garbage allocated while marking; the
// points are the same every run.
func (m *million) probeHeap(uint64, uint64) (uint64, error) {
	var peak uint64
	spec := scenario.Spec{
		Factory: func() (workload.JobSource, error) {
			src, err := m.sc.NewSource()
			if err != nil {
				return nil, err
			}
			c, _ := src.(workload.Counted)
			g := &gcSource{JobSource: src, countedFwd: countedFwd{c}, every: max(1, m.jobs()/heapProbeCycles), peak: &peak}
			if err := sameSourceSeams(g, src); err != nil {
				return nil, err
			}
			return g, nil
		},
		Variant: m.spec.Variant,
		Policy:  m.spec.Policy,
	}
	sc, err := scenario.Compile(spec)
	if err != nil {
		return 0, err
	}
	out, err := sc.Execute()
	if err != nil {
		return 0, err
	}
	if got := pinOf(out.Results); !got.matches(m.want) {
		return 0, fmt.Errorf("heap probe Results %+v, pinned %+v", got, m.want)
	}
	return peak, nil
}

// gcSource runs a full GC on the caller's goroutine every `every` jobs
// it hands out and keeps the largest live heap a cycle marked.
type gcSource struct {
	workload.JobSource
	countedFwd
	every, n int
	peak     *uint64
}

func (s *gcSource) Next() (workload.Job, bool) {
	if s.n++; s.n%s.every == 0 {
		runtime.GC()
		*s.peak = max(*s.peak, liveHeap())
	}
	return s.JobSource.Next()
}

// paperPolicyObject builds the policy scenario.Compile builds for cfg on
// the default gears and β.
func paperPolicyObject(cfg scenario.PolicyConfig) (*core.Policy, error) {
	gears := dvfs.PaperGearSet()
	return core.NewPolicy(core.Params{BSLDThreshold: cfg.BSLDThr, WQThreshold: cfg.WQThr},
		gears, dvfs.NewTimeModel(scenario.DefaultBeta, gears))
}

// goldenDir holds the paper grid's reference CSVs. The benchmark only
// reads it.
const goldenDir = "testdata/golden"

// grid is the paper_grid workload.
type grid struct {
	golden  map[string][]byte
	cells   []experiments.Config       // distinct cells, in the order Prefetch runs them
	traces  map[string]*workload.Trace // the five paper traces, traced runs only
	workers int
	suite   *experiments.Suite // the latest untraced repetition's
}

// setupPaperGrid reads the golden CSVs, the benchmark's own input: the
// program's work, trace generation included, all happens inside RunAll.
// A traced run also generates the five 5000-job paper traces its replay
// runs on. The grid has no random input, so seed is unused.
func setupPaperGrid(_ int64, traced bool) (bench, error) {
	g := &grid{golden: map[string][]byte{}, workers: poolWorkers()}
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no golden CSVs under %s", goldenDir)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		g.golden[filepath.Base(f)] = data
	}
	seen := map[experiments.Config]bool{}
	for _, c := range experiments.GridConfigs() {
		if c.SizeFactor == 0 {
			c.SizeFactor = 1
		}
		if !seen[c] {
			seen[c] = true
			g.cells = append(g.cells, c)
		}
	}
	if !traced {
		return g, nil
	}
	g.traces = map[string]*workload.Trace{}
	for _, w := range experiments.Workloads() {
		m, err := wgen.Preset(w)
		if err != nil {
			return nil, err
		}
		m.Jobs = wgen.StandardJobs
		if g.traces[w], err = wgen.Generate(m); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *grid) jobs() int         { return len(g.cells) * wgen.StandardJobs }
func (g *grid) compileS() float64 { return 0 }
func (g *grid) parallelism() int  { return g.workers }

// probeHeap runs the grid with the collector paced, as RunAll's pool
// workers cannot be stopped from outside for a cycle.
func (g *grid) probeHeap(allocB, liveB uint64) (uint64, error) {
	return pacedHeapProbe(g, allocB, liveB)
}

// run is one full reproduction, RunAll over a fresh suite, and checks
// the CSVs it writes. A phase split runs the suite's own Prefetch of
// GridConfigs first, then RunAll over the warm cells, which is the same
// work RunAll does in one call.
func (g *grid) run(r *rep) error {
	dir, err := os.MkdirTemp(".bench_build", "paper-grid-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	s := experiments.NewSuite(0)
	if r != nil {
		if err := s.Prefetch(experiments.GridConfigs(), g.workers); err != nil {
			return err
		}
	}
	t1 := time.Now()
	if err := experiments.RunAll(s, io.Discard, dir, g.workers); err != nil {
		return err
	}
	if r != nil {
		r.renderS = time.Since(t1).Seconds()
	}
	if err := g.compareGolden(dir); err != nil {
		return err
	}
	g.suite = s
	return nil
}

// compareGolden checks that dir holds exactly the golden CSVs, byte for
// byte.
func (g *grid) compareGolden(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	if len(files) != len(g.golden) {
		return fmt.Errorf("RunAll wrote %d CSVs, %d golden", len(files), len(g.golden))
	}
	var bad []string
	for name, want := range g.golden {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("CSVs differ from %s: %v", goldenDir, bad)
	}
	return nil
}

// traced replays every cell as Suite.Cell compiles it, on a pool of the
// same size and in the same order as Prefetch, but over the set-up's
// traces and with the policy and the scheduler's callbacks decorated. It
// times each cell (compile and execute) and the pool, and checks each
// cell's Results against the untraced suite's.
func (g *grid) traced(l *layers) error {
	if g.suite == nil {
		return fmt.Errorf("traced replay needs an untraced repetition first")
	}
	top := dvfs.PaperGearSet().Top()
	var mu sync.Mutex
	pool := &sweep.Pool{Workers: g.workers}
	t0 := time.Now()
	err := pool.ForEach(context.Background(), len(g.cells), func(i int) error {
		c := g.cells[i]
		c0 := time.Now()
		var cl layers
		spec := scenario.Spec{
			Trace:          g.traces[c.Workload],
			SizeFactor:     c.SizeFactor,
			KeepCollector:  true,
			ExtraRecorders: []sched.Recorder{&tracedRecorder{l: &cl}},
		}
		cfg := scenario.PolicyConfig{BSLDThr: c.BSLDThr, WQThr: c.WQThr}
		if !cfg.Baseline() {
			pol, err := paperPolicyObject(cfg)
			if err != nil {
				return err
			}
			if spec.GearPolicy, err = tracePolicy(pol, top, &cl); err != nil {
				return err
			}
		}
		sc, err := scenario.Compile(spec)
		if err != nil {
			return fmt.Errorf("cell %+v: %w", c, err)
		}
		e0 := time.Now()
		out, err := sc.Execute()
		cl.execNs = since(e0)
		if err != nil {
			return fmt.Errorf("cell %+v: %w", c, err)
		}
		cellNs := since(c0)
		cl.peakEvents = int64(out.PeakEvents)
		want, err := g.suite.Cell(c) // cached by the untraced repetition
		if err != nil {
			return err
		}
		if out.Results != want.Results || out.CPUs != want.CPUs {
			return fmt.Errorf("cell %+v: traced Results %+v differ from untraced %+v", c, out.Results, want.Results)
		}
		mu.Lock()
		l.add(&cl)
		l.cellNs = append(l.cellNs, cellNs)
		mu.Unlock()
		return nil
	})
	l.poolNs = since(t0)
	return err
}
