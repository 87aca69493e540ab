// Command benchgate guards the scheduler hot path's throughput and the
// streaming pipeline's memory footprint in CI: it parses `go test -bench`
// output and compares four quantities against the last committed entries
// of BENCH_sched.json, failing the build on a regression beyond the
// allowed fraction.
//
// Gates 1 and 3 are calibrated throughput gates. Each divides a replay's
// jobs/s by the jobs/s of the calibration kernel — a fixed, in-repo
// heap workload (calibrationKernel in bench_test.go) that shares no code
// with the simulator — run as the adjacent "calibration" sub-benchmark of
// the same invocation on the same host. The ratio cancels runner
// hardware out: a slow CI machine scales both rows down together, while
// a regression in the simulator craters only the numerator. Absolute
// thresholds would instead track whatever hardware CI happens to land on.
//
// Gate 1 — EASY hot path: the optimized/calibration ratio of
// BenchmarkEASYMillion, one million Million-preset jobs under classic
// EASY. It guards the event loop, the run list and the pass against an
// O(running) step per event — a linear-scan run-list removal, an upfront
// arrival heap, per-pass scratch allocation.
//
// Gate 2 — memory: the streamed Million replay's peak-heap-MB high-water
// (BenchmarkStreamingMillionHeap). Unlike wall clock, the allocation
// pattern of a deterministic replay is essentially host-independent, so
// this gate compares the absolute megabytes: an O(trace) slice sneaking
// back into the streaming path shows up as a ~5x jump, far beyond the
// regression allowance.
//
// Gate 3 — replanning: the optimized/calibration ratio of
// BenchmarkConservativePolicyMillion, the Million model cut to 67k jobs
// under conservative backfilling and the paper's policy, where ~2% of
// passes end with jobs waiting. That regime is where the replanning
// structures work — the persistent availability profile with its
// changed-prefix reservation reuse, the chunked release index and the
// chunked profile tiers — so a per-pass profile rebuild, a memmove-backed
// release schedule or flat reservation tiers each show up here. A replay
// that never queues (the FULL Million preset) starts every job without
// the profile or the release schedule and cannot tell them apart.
//
// Gate 4 — controller overhead: the EASY Million-preset capped-vs-off
// throughput ratio (BenchmarkControllerMillion). The capped mode runs the
// PI power-cap controller at CapFrac=1, where it meters and decides every
// pass but never actuates, so the schedule is byte-identical and the
// ratio isolates the power-controller layer's observe/decide cost. Like
// the calibrated ratios it cancels runner hardware out; a drop means the
// controller hot path (O(1) metering, the control law, the gear-ceiling
// walk) grew beyond its allowance.
//
// Baselines come from the rows of the newest BENCH_sched.json entry that
// carries both modes. Rows marked "commit": "parent" record the parent
// commit's numbers for comparison and are never a baseline. A missing
// row, in the bench output or in the baseline, is an error, never a pass.
//
// Every gate disables via an empty benchmark name.
//
// Usage:
//
//	go test -run '^$' -bench 'EASYMillion|StreamingMillionHeap|ConservativePolicyMillion|ControllerMillion' -benchtime 1x . | tee bench.out
//	go run ./cmd/benchgate -bench bench.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchFile mirrors the subset of BENCH_sched.json the gates need.
type benchFile struct {
	Entries []struct {
		PR        int    `json:"pr"`
		Benchmark string `json:"benchmark"`
		Results   []struct {
			Jobs       int     `json:"jobs"`
			Mode       string  `json:"mode"`
			Commit     string  `json:"commit"`
			JobsPerS   float64 `json:"jobs_per_s"`
			PeakHeapMB float64 `json:"peak_heap_mb"`
		} `json:"results"`
	} `json:"entries"`
}

// config carries every gate's knobs; each gate disables via an empty
// benchmark name.
type config struct {
	benchPath, basePath string

	benchmark  string // gate 1
	jobs       int
	maxRegress float64

	heapBench  string // gate 2
	heapGrowth float64

	consBench   string // gate 3
	consJobs    int
	consRegress float64

	ctrlBench   string // gate 4
	ctrlJobs    int
	ctrlRegress float64
}

func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var cfg config
	fs.StringVar(&cfg.benchPath, "bench", "bench.out", "go test -bench output to scan")
	fs.StringVar(&cfg.basePath, "baseline", "BENCH_sched.json", "committed performance trajectory")
	fs.StringVar(&cfg.benchmark, "benchmark", "BenchmarkEASYMillion", "EASY throughput benchmark to gate on (empty disables the EASY gate)")
	fs.IntVar(&cfg.jobs, "jobs", 1_000_000, "Million-preset job count of the gated EASY and heap sub-runs")
	fs.Float64Var(&cfg.maxRegress, "max-regress", 0.20, "maximum allowed fractional drop of the EASY optimized/calibration ratio")
	fs.StringVar(&cfg.heapBench, "heap-benchmark", "BenchmarkStreamingMillionHeap", "streaming peak-heap benchmark to gate on (empty disables the heap gate)")
	fs.Float64Var(&cfg.heapGrowth, "heap-max-growth", 0.20, "maximum allowed fractional growth of the streamed peak heap")
	fs.StringVar(&cfg.consBench, "cons-benchmark", "BenchmarkConservativePolicyMillion", "replanning benchmark to gate on (empty disables the replanning gate)")
	fs.IntVar(&cfg.consJobs, "cons-jobs", 67_000, "job count of the gated replanning sub-runs")
	fs.Float64Var(&cfg.consRegress, "cons-max-regress", 0.20, "maximum allowed fractional drop of the replanning optimized/calibration ratio")
	fs.StringVar(&cfg.ctrlBench, "ctrl-benchmark", "BenchmarkControllerMillion", "controller-overhead benchmark to gate on (empty disables the controller gate)")
	fs.IntVar(&cfg.ctrlJobs, "ctrl-jobs", 1_000_000, "Million-preset job count of the gated controller sub-runs")
	fs.Float64Var(&cfg.ctrlRegress, "ctrl-max-regress", 0.20, "maximum allowed fractional drop of the capped/off throughput ratio")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// run evaluates every enabled gate in order and returns the first
// violation or read error.
func run(cfg config, out io.Writer) error {
	if cfg.benchmark != "" {
		if err := gateRatio(out, "EASY", cfg.benchPath, cfg.basePath, cfg.benchmark, cfg.jobs, cfg.maxRegress, "calibration", "optimized"); err != nil {
			return err
		}
	}

	if cfg.heapBench != "" {
		baseHeap, err := baselineHeapMB(cfg.basePath, cfg.heapBench, cfg.jobs, "streamed")
		if err != nil {
			return err
		}
		target := fmt.Sprintf("%s/jobs=%d/streamed", cfg.heapBench, cfg.jobs)
		heap, err := measuredMetric(cfg.benchPath, target, "peak-heap-MB")
		if err != nil {
			return err
		}
		ceiling := baseHeap * (1 + cfg.heapGrowth)
		fmt.Fprintf(out, "benchgate: streamed peak heap %.1f MB; baseline %.1f MB, ceiling %.1f MB\n",
			heap, baseHeap, ceiling)
		if heap > ceiling {
			return fmt.Errorf("streamed peak heap grew %.1f%% (> %.0f%% allowed): %.1f MB > %.1f MB",
				100*(heap/baseHeap-1), 100*cfg.heapGrowth, heap, ceiling)
		}
	}

	if cfg.consBench != "" {
		if err := gateRatio(out, "replanning", cfg.benchPath, cfg.basePath, cfg.consBench, cfg.consJobs, cfg.consRegress, "calibration", "optimized"); err != nil {
			return err
		}
	}

	if cfg.ctrlBench != "" {
		if err := gateRatio(out, "controller", cfg.benchPath, cfg.basePath, cfg.ctrlBench, cfg.ctrlJobs, cfg.ctrlRegress, "off", "capped"); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "benchgate: ok")
	return nil
}

// gateRatio holds one optMode/baseMode throughput ratio against the
// newest committed baseline of the given benchmark, returning an error
// when it drops beyond the allowed fraction. Both sub-runs come from the
// same bench invocation on the same host, so the ratio cancels runner
// hardware out.
func gateRatio(out io.Writer, label, benchPath, basePath, benchmark string, jobs int, maxRegress float64, baseMode, optMode string) error {
	base, err := baselineRatio(basePath, benchmark, jobs, baseMode, optMode)
	if err != nil {
		return err
	}
	prefix := fmt.Sprintf("%s/jobs=%d/", benchmark, jobs)
	ref, err := measuredMetric(benchPath, prefix+baseMode, "jobs/s")
	if err != nil {
		return err
	}
	opt, err := measuredMetric(benchPath, prefix+optMode, "jobs/s")
	if err != nil {
		return err
	}
	ratio := opt / ref
	floor := base * (1 - maxRegress)
	fmt.Fprintf(out, "benchgate: %s %s/%s ratio %.4g (%s %.0f, %s %.0f jobs/s); baseline %.4g, floor %.4g\n",
		label, optMode, baseMode, ratio, optMode, opt, baseMode, ref, base, floor)
	if ratio < floor {
		return fmt.Errorf("%s %s/%s ratio regressed %.1f%% (> %.0f%% allowed): %.4g < %.4g",
			label, optMode, baseMode, 100*(1-ratio/base), 100*maxRegress, ratio, floor)
	}
	return nil
}

// baselineRatio returns optMode/baseMode jobs/s from the newest
// BENCH_sched.json entry of the benchmark carrying both rows at the
// given job count, parent-commit rows excluded.
func baselineRatio(path, benchmark string, jobs int, baseMode, optMode string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	for i := len(bf.Entries) - 1; i >= 0; i-- {
		if bf.Entries[i].Benchmark != benchmark {
			continue
		}
		var ref, opt float64
		for _, r := range bf.Entries[i].Results {
			if r.Jobs != jobs || r.Commit == "parent" {
				continue
			}
			switch r.Mode {
			case baseMode:
				ref = r.JobsPerS
			case optMode:
				opt = r.JobsPerS
			}
		}
		if ref > 0 && opt > 0 {
			return opt / ref, nil
		}
	}
	return 0, fmt.Errorf("%s: no %s entry with %s+%s rows at jobs=%d", path, benchmark, baseMode, optMode, jobs)
}

// baselineHeapMB returns the peak_heap_mb of the newest BENCH_sched.json
// entry of the benchmark carrying a non-parent row at the given job count
// and mode.
func baselineHeapMB(path, benchmark string, jobs int, mode string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	for i := len(bf.Entries) - 1; i >= 0; i-- {
		if bf.Entries[i].Benchmark != benchmark {
			continue
		}
		for _, r := range bf.Entries[i].Results {
			if r.Jobs == jobs && r.Mode == mode && r.Commit != "parent" && r.PeakHeapMB > 0 {
				return r.PeakHeapMB, nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s entry with a %s peak_heap_mb row at jobs=%d", path, benchmark, mode, jobs)
}

// measuredMetric scans go-test bench output for the target sub-run and
// returns the value reported with the given unit. Benchmark lines read:
// Name-P  N  <value> <unit>  <value> <unit> ...
func measuredMetric(path, target, unit string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], target) {
			continue
		}
		for i := 2; i < len(fields)-1; i++ {
			if fields[i+1] == unit {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing %q: %w", fields[i], err)
				}
				return v, nil
			}
		}
		return 0, fmt.Errorf("bench line for %s carries no %s metric", target, unit)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no bench line matching %s", path, target)
}
