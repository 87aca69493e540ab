// Command perfbench is the repository's benchmark. It drives the
// simulator only through its public seams (scenario.Compile/Execute,
// experiments.NewSuite/RunAll, sweep.Pool), checks every output, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the timed region runs untraced and the result carries
// the end-to-end metrics: jobs_per_s (per wall second net of hypervisor
// steal), setup_s, cpu_s_per_mjob and peak_live_heap_mb (from a heap
// probe run with dense GC pacing). With --trace 1 the run alternates
// untraced repetitions, which are CPU-profiled and folded by module,
// with traced ones, whose decorators count and time the calls crossing
// the public seams; the result carries the per-layer metrics, and a
// per-layer table is printed above it.
//
// Workloads (see workloads.go for the regime evidence behind each):
//
//   - paper_grid: experiments.RunAll over all 135 cells of the paper's
//     Tables 1-3 and Figures 3-9 at 5000 jobs, every CSV compared byte for
//     byte with testdata/golden. The grid has no random input; --seed
//     does not change it.
//   - million_conservative: the streamed Million preset (1M jobs) under
//     conservative backfilling without DVFS. It never queues a job.
//   - million_policy: a 67,000-job Million trace under EASY with the
//     paper's policy (BSLDth 2, WQth 4), long enough to reach the
//     saturated phase where jobs wait.
//
// The Million workloads replay the preset's own generator seed, so their
// Results can be pinned (pins.json); --seed does not change them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A run repeats its set-up at least setupReps times, and more while the
// set-ups so far took less than setupBudget, up to setupMaxReps; setup_s
// is the median. Short set-ups so get many samples.
const (
	setupReps    = 5
	setupMaxReps = 200
	setupBudget  = time.Second
)

// minReps is the fewest timed repetitions a run makes, however short
// --seconds is, so every reported figure is a median of at least three.
const minReps = 3

// workloads maps each workload's name to its set-up, which builds the
// inputs (those of the traced replay too when traced is set) and returns
// the bench that runs repetitions of the timed region.
var workloads = map[string]func(seed int64, traced bool) (bench, error){
	"paper_grid":           setupPaperGrid,
	"million_conservative": setupMillionConservative,
	"million_policy":       setupMillionPolicy,
}

// bench is a workload after set-up.
type bench interface {
	// jobs is the number of simulated jobs one repetition completes.
	jobs() int
	// run executes one untraced repetition and checks its outputs. A
	// non-nil r asks for the repetition's phases, where it has them.
	run(r *rep) error
	// traced executes one traced repetition, adding its counts and spans
	// to l, and checks its outputs against the latest untraced ones.
	traced(l *layers) error
	// compileS is the time of the scenario.Compile call inside set-up
	// (zero when set-up compiles nothing).
	compileS() float64
	// parallelism is how many simulations one repetition runs at once,
	// and so how many CPUs whose stolen time holds it up.
	parallelism() int
	// probeHeap runs one more repetition, untimed, sampling the live heap
	// densely, checks its outputs and returns the largest live heap seen.
	// allocB and liveB are the largest allocation and post-GC live heap
	// of the timed repetitions.
	probeHeap(allocB, liveB uint64) (uint64, error)
}

// rep is the phase split of one repetition.
type rep struct {
	renderS float64 // RunAll over warm cells, after the suite's Prefetch (paper_grid)
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: paper_grid, million_conservative or million_policy")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	var setupS []float64
	var b bench
	for s0 := time.Now(); len(setupS) < setupReps || (time.Since(s0) < setupBudget && len(setupS) < setupMaxReps); {
		t0 := time.Now()
		var err error
		if b, err = setup(*seed, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	h := declareHost()
	hj, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Printf("host %s\n", hj)

	res := result{Correct: true, Metrics: map[string]metric{}}
	deadline := time.Duration(*seconds * float64(time.Second))
	if *trace == 0 {
		untracedRun(*name, b, deadline, setupS, &res)
	} else {
		tracedRun(*name, b, deadline, &res)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed repetition.
func (r *result) fail(workload string, err error) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
}

// sample is what one timed repetition measured.
type sample struct {
	wallS, cpuS      float64
	stealS           float64 // time the hypervisor took from this machine's CPUs, summed
	peakLiveB        uint64
	allocB, gcCycles uint64
}

// measure runs fn as one timed repetition: a full GC first, so garbage
// of earlier repetitions neither counts against this one's peak heap nor
// is collected on its clock, then wall and process CPU time, allocated
// bytes, GC cycles and the peak post-GC live heap around fn alone.
func measure(fn func() error) (sample, error) {
	runtime.GC()
	w := watchHeap()
	m0 := readRuntime()
	c0 := cpuTime()
	st0 := stealTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	st1 := stealTime()
	c1 := cpuTime()
	m1 := readRuntime()
	return sample{
		wallS:     wall,
		cpuS:      c1 - c0,
		stealS:    st1 - st0,
		peakLiveB: w.stop(),
		allocB:    m1.allocB - m0.allocB,
		gcCycles:  m1.gcCycles - m0.gcCycles,
	}, err
}

// netWallS is the repetition's wall time less the time the hypervisor
// took from the CPUs it ran on: the machine's stolen time, summed over
// its CPUs, divided by the repetition's parallelism. On a host whose
// hypervisor steals CPU in phases of minutes, wall time swings with the
// phase; the net time follows the program.
func (s sample) netWallS(parallelism int) float64 {
	if net := s.wallS - s.stealS/float64(parallelism); net > 0 {
		return net
	}
	return s.wallS
}

// another reports whether a run starts one more repetition: always until
// it has made min, then only while one of the median length so far ends
// by the deadline.
func another(start time.Time, deadline time.Duration, walls []float64, min int) bool {
	if len(walls) < min {
		return true
	}
	return time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= deadline
}

func untracedRun(name string, b bench, deadline time.Duration, setupS []float64, res *result) {
	var walls, jps, cpu []float64
	var allocB, liveB uint64
	start := time.Now()
	// The loop leaves room for the heap probe, which takes about twice
	// a timed repetition.
	for another(start, deadline-time.Duration(2*median(walls)*float64(time.Second)), walls, minReps) {
		res.Attempted++
		s, err := measure(func() error { return b.run(nil) })
		if err != nil {
			res.fail(name, err)
			break
		}
		net := s.netWallS(b.parallelism())
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: %.3f s wall, %.3f s stolen, %.3f s net, %.3f s CPU\n",
			name, len(jps)+1, s.wallS, s.stealS, net, s.cpuS)
		mjobs := float64(b.jobs()) / 1e6
		walls = append(walls, s.wallS)
		jps = append(jps, float64(b.jobs())/net)
		cpu = append(cpu, s.cpuS/mjobs)
		allocB, liveB = max(allocB, s.allocB), max(liveB, s.peakLiveB)
	}
	res.set("jobs_per_s", median(jps), "jobs/s")
	res.set("setup_s", median(setupS), "s")
	res.set("cpu_s_per_mjob", median(cpu), "s/Mjob")
	res.set("peak_live_heap_mb", float64(liveB)/(1<<20), "MiB")
	if res.Failed > 0 {
		return
	}

	res.Attempted++
	runtime.GC()
	peak, err := b.probeHeap(allocB, liveB)
	if err != nil {
		res.fail(name, err)
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s heap probe: %.3f MiB peak live heap\n", name, float64(peak)/(1<<20))
	res.set("peak_live_heap_mb", float64(peak)/(1<<20), "MiB")
}

// heapProbeCycles is about how many GC cycles a heap probe runs. Under
// the default pacing a timed repetition of million_policy runs three or
// four, and what they mark depends on timing: its peak read 7.3 or
// 8.5 MiB from one repetition to the next.
const heapProbeCycles = 250

// pacedHeapProbe runs one repetition with the collector paced to start a
// cycle every allocB/heapProbeCycles allocated bytes, and returns the
// largest live heap a cycle marked. Objects allocated while a cycle marks
// count as live in it, so the figure moves with how fast the program
// allocates against how fast the collector marks.
func pacedHeapProbe(b bench, allocB, liveB uint64) (uint64, error) {
	pct := 100
	if liveB > 0 {
		pct = int(min(100, max(1, 100*allocB/(heapProbeCycles*liveB))))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(pct))
	s, err := measure(func() error { return b.run(nil) })
	return s.peakLiveB, err
}

// tracedRun alternates an untraced, CPU-profiled repetition with a
// traced one until the deadline, so the module shares come from the
// program as the end-to-end run sees it and the counts and spans from the
// decorated seams.
func tracedRun(name string, b bench, deadline time.Duration, res *result) {
	var (
		pairS, refS, tracedS, allocPerJob, gcCycles, render []float64
		spans                                               []layers // one per traced repetition
		prof                                                = moduleSamples{}
	)
	start := time.Now()
	for another(start, deadline, pairS, 2) {
		p0 := time.Now()
		res.Attempted++
		var r rep
		var s sample
		err := profileInto(prof, func() error {
			var err error
			s, err = measure(func() error { return b.run(&r) })
			return err
		})
		if err != nil {
			res.fail(name, err)
			break
		}
		allocPerJob = append(allocPerJob, float64(s.allocB)/float64(b.jobs()))
		gcCycles = append(gcCycles, float64(s.gcCycles))
		ref := s.netWallS(b.parallelism())
		if r.renderS > 0 {
			// The traced grid replays the cells alone, so it is compared
			// with the untraced Prefetch, not with Prefetch plus render.
			ref -= r.renderS
			render = append(render, r.renderS)
		}
		refS = append(refS, ref)

		res.Attempted++
		var l layers
		ts, err := measure(func() error { return b.traced(&l) })
		tracedS = append(tracedS, ts.netWallS(b.parallelism()))
		if err != nil {
			res.fail(name, err)
			break
		}
		spans = append(spans, l)
		pairS = append(pairS, time.Since(p0).Seconds())
	}

	overhead := 0.0
	if len(spans) > 0 {
		overhead = median(tracedS)/median(refS) - 1
	}
	report := layerReport(medianLayers(spans), prof, b.compileS(), median(allocPerJob), median(gcCycles),
		poolWorkers(), median(render), overhead)
	printTable(name, report)
	for _, m := range report {
		res.set(m.name, m.value, m.unit)
	}
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (zero for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealTime is the machine's total steal time in seconds, summed over its
// CPUs: the time a hypervisor ran something else while a CPU of this
// machine was ready to run. It reads 0 where /proc/stat has no steal
// column.
func stealTime() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/stat, on every Linux ABI Go
// supports.
const clockTicks = 100

type runtimeCounters struct{ allocB, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocB: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// heapWatch records the largest live heap any GC cycle marks while it
// runs. A finalizer on a sentinel fires once per cycle and re-arms
// itself, so the watch costs nothing between collections.
type heapWatch struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

type sentinel struct{ _ *int }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		v := liveHeap()
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.stopped {
			return
		}
		w.peak = max(w.peak, v)
		w.arm()
	})
}

// liveHeap is the heap the latest GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stop ends the watch and returns the peak.
func (w *heapWatch) stop() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	return w.peak
}

// host declares the machine a result was measured on.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOSArch   string `json:"goos_goarch"`
	Workers    int    `json:"pool_workers"`
}

func declareHost() host {
	return host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOSArch:   runtime.GOOS + "/" + runtime.GOARCH,
		Workers:    poolWorkers(),
	}
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// poolWorkers is the paper grid's pool size: one worker per CPU the
// process may use, never more than nproc.
func poolWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); w > n {
		w = n
	}
	return w
}
