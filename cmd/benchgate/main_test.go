package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture baseline carries one ConservativePolicyMillion entry whose
// optimized/flatresv ratio is 2.5x, so the default 20% allowance puts
// the gate floor at 2.0x. Its parent-commit rows come last and would
// give other ratios: they must never serve as the baseline.
const baselineJSON = `{
  "entries": [
    {
      "benchmark": "BenchmarkConservativePolicyMillion",
      "results": [
        {"jobs": 67000, "mode": "rebuild", "jobs_per_s": 2500},
        {"jobs": 67000, "mode": "memmove", "jobs_per_s": 40000},
        {"jobs": 67000, "mode": "flatresv", "jobs_per_s": 100000},
        {"jobs": 67000, "mode": "optimized", "jobs_per_s": 250000},
        {"jobs": 67000, "mode": "rebuild", "commit": "parent", "jobs_per_s": 2500},
        {"jobs": 67000, "mode": "optimized", "commit": "parent", "jobs_per_s": 100000}
      ]
    }
  ]
}`

const benchOutPass = `goos: linux
BenchmarkConservativePolicyMillion/jobs=67000/rebuild-8         	       1	26800000000 ns/op	      2500 jobs/s
BenchmarkConservativePolicyMillion/jobs=67000/memmove-8         	       1	 1675000000 ns/op	     40000 jobs/s
BenchmarkConservativePolicyMillion/jobs=67000/flatresv-8        	       1	  670000000 ns/op	    100000 jobs/s
BenchmarkConservativePolicyMillion/jobs=67000/optimized-8       	       1	  257692307 ns/op	    260000 jobs/s
PASS
`

// The regressed run keeps the baseline flatresv throughput but the
// optimized mode collapses to 1.5x — under the 2.0x floor.
const benchOutRegressed = `goos: linux
BenchmarkConservativePolicyMillion/jobs=67000/rebuild-8         	       1	26800000000 ns/op	      2500 jobs/s
BenchmarkConservativePolicyMillion/jobs=67000/memmove-8         	       1	 1675000000 ns/op	     40000 jobs/s
BenchmarkConservativePolicyMillion/jobs=67000/flatresv-8        	       1	  670000000 ns/op	    100000 jobs/s
BenchmarkConservativePolicyMillion/jobs=67000/optimized-8       	       1	  446666666 ns/op	    150000 jobs/s
PASS
`

// runGate parses the given extra flags on top of paths pointing at the
// two fixture files and evaluates the gates, returning run's error and
// everything printed. Every gate except the reservation-tier one is
// disabled unless the extra flags re-enable it.
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
		"-benchmark=", "-heap-benchmark=", "-cons-benchmark=",
		"-relindex-benchmark=", "-ctrl-benchmark=",
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

func TestReservationTierGatePasses(t *testing.T) {
	out, err := runGate(t, baselineJSON, benchOutPass)
	if err != nil {
		t.Fatalf("gate failed on a healthy run: %v", err)
	}
	if !strings.Contains(out, "reservation-tier optimized/flatresv speedup 2.60x") {
		t.Errorf("missing gate report, got:\n%s", out)
	}
	if !strings.Contains(out, "benchgate: ok") {
		t.Errorf("missing ok line, got:\n%s", out)
	}
}

func TestReservationTierGateFailsOnRegression(t *testing.T) {
	_, err := runGate(t, baselineJSON, benchOutRegressed)
	if err == nil {
		t.Fatal("gate passed a 1.5x run against a 2.0x floor")
	}
	if !strings.Contains(err.Error(), "reservation-tier speedup regressed") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGateFailsOnMissingBenchLine(t *testing.T) {
	// The run dropped the flatresv sub-benchmark entirely — the gate must
	// fail loudly rather than treat the hole as a pass.
	trimmed := strings.ReplaceAll(benchOutPass,
		"BenchmarkConservativePolicyMillion/jobs=67000/flatresv", "BenchmarkSomethingElse/flatresv")
	_, err := runGate(t, baselineJSON, trimmed)
	if err == nil {
		t.Fatal("gate passed with the flatresv bench line missing")
	}
	if !strings.Contains(err.Error(), "no bench line matching") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGateFailsOnMissingBaselineRows(t *testing.T) {
	// A baseline whose newest PolicyMillion entry predates the flatresv
	// mode: no entry carries both rows, so the gate cannot establish a
	// floor and must fail.
	old := strings.ReplaceAll(baselineJSON, `"flatresv"`, `"prehistoric"`)
	_, err := runGate(t, old, benchOutPass)
	if err == nil {
		t.Fatal("gate passed without a usable baseline entry")
	}
	if !strings.Contains(err.Error(), "no BenchmarkConservativePolicyMillion entry with flatresv+optimized rows") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGatesDisableByEmptyName(t *testing.T) {
	// With every benchmark name empty, nothing is read: even files full
	// of garbage cannot fail the run.
	out, err := runGate(t, "not json", "no bench lines", "-resv-benchmark=")
	if err != nil {
		t.Fatalf("disabled gates still ran: %v", err)
	}
	if !strings.Contains(out, "benchgate: ok") {
		t.Errorf("missing ok line, got:\n%s", out)
	}
}

func TestReleaseIndexGateReadsSameBenchOutput(t *testing.T) {
	// Gates 3, 4 and 6 share one BenchmarkConservativePolicyMillion
	// invocation: enabling all three against the same fixture must
	// evaluate every ratio (104x, 6.5x and 2.6x) from the same file, each
	// against its change-row baseline (100x, 6.25x, 2.5x).
	out, err := runGate(t, baselineJSON, benchOutPass,
		"-cons-benchmark=BenchmarkConservativePolicyMillion",
		"-relindex-benchmark=BenchmarkConservativePolicyMillion")
	if err != nil {
		t.Fatalf("gates failed on a healthy run: %v", err)
	}
	for _, want := range []string{
		"replanning optimized/rebuild speedup 104.00x (optimized 260000, rebuild 2500 jobs/s); baseline 100.00x",
		"release-index optimized/memmove speedup 6.50x (optimized 260000, memmove 40000 jobs/s); baseline 6.25x",
		"reservation-tier optimized/flatresv speedup 2.60x (optimized 260000, flatresv 100000 jobs/s); baseline 2.50x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q, got:\n%s", want, out)
		}
	}
}

func TestGateDefaultsReadConservativePolicyMillion(t *testing.T) {
	// The replanning, release-index and reservation-tier gates default
	// to the queued conservative benchmark at 67k jobs.
	fs := flag.NewFlagSet("benchgate-defaults", flag.ContinueOnError)
	cfg, err := parseFlags(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name, bench string
		jobs        int
	}{
		{"replanning", cfg.consBench, cfg.consJobs},
		{"release-index", cfg.idxBench, cfg.idxJobs},
		{"reservation-tier", cfg.resvBench, cfg.resvJobs},
	} {
		if g.bench != "BenchmarkConservativePolicyMillion" || g.jobs != 67_000 {
			t.Errorf("%s gate defaults to %s at %d jobs", g.name, g.bench, g.jobs)
		}
	}
}
