package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture baseline carries one ConservativePolicyMillion entry whose
// optimized/calibration ratio is 0.025 and one EASYMillion entry at 0.1,
// so the default 20% allowance puts the floors at 0.02 and 0.08. The
// parent-commit rows come last and would give other ratios: they must
// never serve as the baseline.
const baselineJSON = `{
  "entries": [
    {
      "benchmark": "BenchmarkEASYMillion",
      "results": [
        {"jobs": 1000000, "mode": "calibration", "jobs_per_s": 10000000},
        {"jobs": 1000000, "mode": "optimized", "jobs_per_s": 1000000}
      ]
    },
    {
      "benchmark": "BenchmarkConservativePolicyMillion",
      "results": [
        {"jobs": 67000, "mode": "calibration", "jobs_per_s": 10000000},
        {"jobs": 67000, "mode": "optimized", "jobs_per_s": 250000},
        {"jobs": 67000, "mode": "calibration", "commit": "parent", "jobs_per_s": 10000000},
        {"jobs": 67000, "mode": "optimized", "commit": "parent", "jobs_per_s": 100000}
      ]
    }
  ]
}`

// conservativeBenchOut renders one BenchmarkConservativePolicyMillion
// invocation: the calibration row and the optimized row.
func conservativeBenchOut(calibration, optimized string) string {
	return `goos: linux
BenchmarkConservativePolicyMillion/jobs=67000/calibration-8     	       1	  700000000 ns/op	  ` + calibration + ` jobs/s
BenchmarkConservativePolicyMillion/jobs=67000/optimized-8       	       1	  257692307 ns/op	    ` + optimized + ` jobs/s
PASS
`
}

// A host twice as slow as the baseline's, with the replay 15% behind the
// baseline ratio: 0.02125 against the 0.02 floor.
var benchOut15 = conservativeBenchOut("5000000", "106250")

// The same slow host with the replay 25% behind: 0.01875 < 0.02.
var benchOut25 = conservativeBenchOut("5000000", "93750")

// runGate parses the given extra flags on top of paths pointing at the
// two fixture files and evaluates the gates, returning run's error and
// everything printed. Every gate except the replanning one is disabled
// unless the extra flags re-enable it.
func runGate(t *testing.T, baseline, benchOut string, extra ...string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_sched.json")
	benchPath := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(basePath, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchPath, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-bench", benchPath, "-baseline", basePath,
		"-benchmark=", "-heap-benchmark=", "-ctrl-benchmark=",
	}
	args = append(args, extra...)
	fs := flag.NewFlagSet("benchgate-test", flag.ContinueOnError)
	cfg, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("parsing flags: %v", err)
	}
	var out strings.Builder
	err = run(cfg, &out)
	return out.String(), err
}

func TestCalibratedGatePassesOn15PercentDrop(t *testing.T) {
	out, err := runGate(t, baselineJSON, benchOut15)
	if err != nil {
		t.Fatalf("gate failed a 15%% drop under a 20%% bound: %v", err)
	}
	if !strings.Contains(out, "replanning optimized/calibration ratio 0.02125 (optimized 106250, calibration 5000000 jobs/s); baseline 0.025, floor 0.02") {
		t.Errorf("missing gate report, got:\n%s", out)
	}
	if !strings.Contains(out, "benchgate: ok") {
		t.Errorf("missing ok line, got:\n%s", out)
	}
}

func TestCalibratedGateFailsOn25PercentDrop(t *testing.T) {
	_, err := runGate(t, baselineJSON, benchOut25)
	if err == nil {
		t.Fatal("gate passed a 25% drop under a 20% bound")
	}
	if !strings.Contains(err.Error(), "replanning optimized/calibration ratio regressed 25.0%") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGateFailsOnMissingBenchLine(t *testing.T) {
	// The run dropped the calibration sub-benchmark: without the row the
	// ratio has no denominator, and the gate must fail loudly rather than
	// treat the hole as a pass.
	trimmed := strings.ReplaceAll(benchOut15,
		"BenchmarkConservativePolicyMillion/jobs=67000/calibration", "BenchmarkSomethingElse/calibration")
	_, err := runGate(t, baselineJSON, trimmed)
	if err == nil {
		t.Fatal("gate passed with the calibration bench line missing")
	}
	if !strings.Contains(err.Error(), "no bench line matching BenchmarkConservativePolicyMillion/jobs=67000/calibration") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGateFailsOnMissingBaselineRows(t *testing.T) {
	// A baseline whose PolicyMillion entry predates the calibration
	// kernel: no entry carries both rows, so the gate cannot establish a
	// floor and must fail.
	old := strings.ReplaceAll(baselineJSON, `"calibration"`, `"rebuild"`)
	_, err := runGate(t, old, benchOut15)
	if err == nil {
		t.Fatal("gate passed without a usable baseline entry")
	}
	if !strings.Contains(err.Error(), "no BenchmarkConservativePolicyMillion entry with calibration+optimized rows") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGatesDisableByEmptyName(t *testing.T) {
	// With every benchmark name empty, nothing is read: even files full
	// of garbage cannot fail the run.
	out, err := runGate(t, "not json", "no bench lines", "-cons-benchmark=")
	if err != nil {
		t.Fatalf("disabled gates still ran: %v", err)
	}
	if !strings.Contains(out, "benchgate: ok") {
		t.Errorf("missing ok line, got:\n%s", out)
	}
}

func TestCalibratedGatesReadSameBenchOutput(t *testing.T) {
	// Gates 1 and 3 read their own calibration rows out of one bench
	// output, each against its own baseline entry: the EASY ratio 0.09
	// clears its 0.08 floor while the replanning ratio 0.02125 clears
	// 0.02.
	easy := `BenchmarkEASYMillion/jobs=1000000/calibration-8     	       1	  100000000 ns/op	  5000000 jobs/s
BenchmarkEASYMillion/jobs=1000000/optimized-8       	       1	 2000000000 ns/op	   450000 jobs/s
`
	out, err := runGate(t, baselineJSON, easy+benchOut15, "-benchmark=BenchmarkEASYMillion")
	if err != nil {
		t.Fatalf("gates failed on a healthy run: %v", err)
	}
	for _, want := range []string{
		"EASY optimized/calibration ratio 0.09 (optimized 450000, calibration 5000000 jobs/s); baseline 0.1, floor 0.08",
		"replanning optimized/calibration ratio 0.02125 (optimized 106250, calibration 5000000 jobs/s); baseline 0.025, floor 0.02",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q, got:\n%s", want, out)
		}
	}
}

func TestGateDefaultsReadConservativePolicyMillion(t *testing.T) {
	// The replanning gate defaults to the queued conservative benchmark
	// at 67k jobs, the EASY gate to the one-million-job EASY replay, and
	// both divide by the calibration row.
	fs := flag.NewFlagSet("benchgate-defaults", flag.ContinueOnError)
	cfg, err := parseFlags(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.consBench != "BenchmarkConservativePolicyMillion" || cfg.consJobs != 67_000 {
		t.Errorf("replanning gate defaults to %s at %d jobs", cfg.consBench, cfg.consJobs)
	}
	if cfg.benchmark != "BenchmarkEASYMillion" || cfg.jobs != 1_000_000 {
		t.Errorf("EASY gate defaults to %s at %d jobs", cfg.benchmark, cfg.jobs)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 13 {
		t.Errorf("benchgate declares %d flags, want 13", n)
	}
}
