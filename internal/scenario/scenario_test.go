package scenario

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// ctcTrace materializes the CTC preset cut to jobs.
func ctcTrace(t *testing.T, jobs int) *workload.Trace {
	t.Helper()
	m := wgen.CTC()
	m.Jobs = jobs
	tr, err := wgen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// execute runs a compiled scenario, failing the test on error.
func execute(t *testing.T, sc *Scenario) Outcome {
	t.Helper()
	out, err := sc.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return out
}

func ctcSpec() Spec {
	return Spec{
		Workload: "CTC", Jobs: 400,
		Policy: PolicyConfig{BSLDThr: 2, WQThr: 4},
	}
}

func compile(t *testing.T, spec Spec) *Scenario {
	t.Helper()
	sc, err := Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return sc
}

func wantErr(t *testing.T, spec Spec, substr string) {
	t.Helper()
	_, err := Compile(spec)
	if err == nil {
		t.Fatalf("Compile accepted a spec that should fail with %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestCompileValidation(t *testing.T) {
	zero, neg := 0.0, -1.5
	tr := &workload.Trace{Name: "t", CPUs: 8, Jobs: []*workload.Job{{ID: 1, Procs: 1, Runtime: 10, ReqTime: 10}}}
	for _, tc := range []struct {
		name   string
		mutate func(*Spec)
		substr string
	}{
		{"no_workload", func(s *Spec) { *s = Spec{} }, "no workload input"},
		{"workload_and_trace", func(s *Spec) { s.Trace = tr }, "Workload and Trace all set"},
		{"trace_and_source", func(s *Spec) { *s = Spec{Trace: tr, Source: tr.Source()} }, "Trace and Source all set"},
		{"zero_beta", func(s *Spec) { s.Beta = &zero }, "Beta must be a positive finite number"},
		{"negative_beta", func(s *Spec) { s.Beta = &neg }, "Beta"},
		{"zero_short_job_th", func(s *Spec) { s.ShortJobTh = &zero }, "ShortJobTh must be a positive finite number"},
		{"negative_reservations", func(s *Spec) { s.Reservations = -1 }, "negative reservation depth"},
		{"negative_size_factor", func(s *Spec) { s.SizeFactor = -0.5 }, "non-positive size factor"},
		{"unknown_variant", func(s *Spec) { s.Variant = "roundrobin" }, "roundrobin"},
		{"unknown_selection", func(s *Spec) { s.Selection = "worstfit" }, "worstfit"},
		{"unknown_order", func(s *Spec) { s.Order = "lifo" }, "lifo"},
		{"negative_wq", func(s *Spec) { s.Policy.WQThr = -3 }, "WQThreshold"},
		{"unknown_workload", func(s *Spec) { s.Workload = "NoSuchPreset" }, "unknown workload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := ctcSpec()
			tc.mutate(&s)
			wantErr(t, s, tc.substr)
		})
	}
}

// TestWorkloadErrorMessages: both directions of the one-workload rule
// name the fields involved — all four when none is set, and exactly the
// conflicting pair when two are.
func TestWorkloadErrorMessages(t *testing.T) {
	tr := ctcTrace(t, 10)
	inputs := map[string]func(*Spec){
		"Workload": func(s *Spec) { s.Workload = "CTC" },
		"Trace":    func(s *Spec) { s.Trace = tr },
		"Source":   func(s *Spec) { s.Source = tr.Source() },
		"Factory":  func(s *Spec) { s.Factory = func() (workload.JobSource, error) { return tr.Source(), nil } },
	}
	order := []string{"Workload", "Trace", "Source", "Factory"}
	wantErr(t, Spec{}, "no workload input: set exactly one of Workload, Trace, Source or Factory")
	for i, a := range order {
		for _, b := range order[i+1:] {
			var s Spec
			inputs[a](&s)
			inputs[b](&s)
			wantErr(t, s, a+" and "+b+" all set")
		}
	}
}

func TestHashDeterminismAndSensitivity(t *testing.T) {
	base := compile(t, ctcSpec())
	if again := compile(t, ctcSpec()); again.Hash() != base.Hash() {
		t.Fatalf("same spec hashed differently: %s vs %s", base.Hash(), again.Hash())
	}

	// Result-relevant knobs must move the hash.
	mutations := map[string]func(*Spec){
		"policy":     func(s *Spec) { s.Policy.BSLDThr = 3 },
		"wq":         func(s *Spec) { s.Policy.WQThr = 16 },
		"baseline":   func(s *Spec) { s.Policy = PolicyConfig{} },
		"jobs":       func(s *Spec) { s.Jobs = 500 },
		"workload":   func(s *Spec) { s.Workload = "SDSC" },
		"sizefactor": func(s *Spec) { s.SizeFactor = 1.2 },
		"cpus":       func(s *Spec) { s.CPUs = 99 },
		"variant":    func(s *Spec) { s.Variant = "fcfs" },
		"selection":  func(s *Spec) { s.Selection = "contiguous" },
		"order":      func(s *Spec) { s.Order = "sjf" },
		"resv":       func(s *Spec) { s.Reservations = 4 },
		"beta":       func(s *Spec) { b := 0.3; s.Beta = &b },
		"shortth":    func(s *Spec) { th := 120.0; s.ShortJobTh = &th },
	}
	seen := map[string]string{base.Hash(): "base"}
	for name, mutate := range mutations {
		s := ctcSpec()
		mutate(&s)
		h := compile(t, s).Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q: hash %s", name, prev, h)
		}
		seen[h] = name
	}

	// Result-neutral observation knobs must NOT move the hash.
	for name, mutate := range map[string]func(*Spec){
		"keepcollector": func(s *Spec) { s.KeepCollector = true },
		"materialize":   func(s *Spec) { s.Materialize = true },
	} {
		s := ctcSpec()
		mutate(&s)
		if h := compile(t, s).Hash(); h != base.Hash() {
			t.Errorf("result-neutral knob %q moved the hash", name)
		}
	}

	// Explicit defaults hash like omitted ones: β=0.5 set explicitly is the
	// same scenario as β=nil.
	s := ctcSpec()
	b := DefaultBeta
	s.Beta = &b
	if h := compile(t, s).Hash(); h != base.Hash() {
		t.Errorf("explicit default Beta moved the hash")
	}
}

func TestCompilerSharesArenas(t *testing.T) {
	var c Compiler
	spec := ctcSpec()
	spec.Materialize = true
	a := mustCompile(t, &c, spec)
	spec.Policy.BSLDThr = 3 // different policy, same workload
	b := mustCompile(t, &c, spec)
	if a.trace == nil || a.trace != b.trace {
		t.Fatalf("two compilations over one workload did not share the trace arena")
	}

	// Streaming presets share the prototype: every minted source is an
	// independent cursor, but compilation does the summing passes once.
	spec.Materialize = false
	s1 := mustCompile(t, &c, spec)
	src1, err := s1.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	src2, err := s1.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if src1 == src2 {
		t.Fatalf("factory-backed scenario handed out the same cursor twice")
	}
}

func mustCompile(t *testing.T, c *Compiler, spec Spec) *Scenario {
	t.Helper()
	sc, err := c.Compile(spec)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return sc
}

func TestConcurrentCompileResolvesWorkloadOnce(t *testing.T) {
	var c Compiler
	spec := ctcSpec()
	spec.Materialize = true
	const n = 8
	scs := make([]*Scenario, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := c.Compile(spec)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			scs[i] = sc
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < n; i++ {
		if scs[i].Hash() != scs[0].Hash() {
			t.Fatalf("goroutine %d hash %s != %s", i, scs[i].Hash(), scs[0].Hash())
		}
		if scs[i].trace != scs[0].trace {
			t.Fatalf("goroutine %d got a different trace arena", i)
		}
	}
}

// TestSharedScenarioConcurrentExecute is the refactor's core guarantee:
// N goroutines executing one compiled scenario concurrently (run under
// -race in CI) produce bit-identical results, for both the materialized
// arena path and the cloned-RNG streaming path.
func TestSharedScenarioConcurrentExecute(t *testing.T) {
	for _, materialize := range []bool{true, false} {
		name := "stream"
		if materialize {
			name = "materialized"
		}
		t.Run(name, func(t *testing.T) {
			spec := ctcSpec()
			spec.Materialize = materialize
			sc := compile(t, spec)
			if !sc.ConcurrentSafe() {
				t.Fatalf("compiled scenario not concurrent-safe")
			}
			const n = 8
			outs := make([]Outcome, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					out, err := sc.Execute()
					if err != nil {
						t.Errorf("goroutine %d: %v", i, err)
						return
					}
					outs[i] = out
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for i := 1; i < n; i++ {
				if outs[i].Results != outs[0].Results {
					t.Fatalf("goroutine %d diverged:\n%+v\n%+v", i, outs[0].Results, outs[i].Results)
				}
			}
			if outs[0].Results.Jobs != 400 || outs[0].Results.AvgBSLD <= 0 {
				t.Fatalf("implausible results %+v", outs[0].Results)
			}
		})
	}
}

// TestMaterializedMatchesStreaming pins the bit-identity between the
// shared-arena and cloned-cursor workload paths.
func TestMaterializedMatchesStreaming(t *testing.T) {
	stream := compile(t, ctcSpec())
	spec := ctcSpec()
	spec.Materialize = true
	arena := compile(t, spec)
	if stream.Hash() != arena.Hash() {
		t.Fatalf("materialize moved the hash: %s vs %s", stream.Hash(), arena.Hash())
	}
	a, b := execute(t, stream), execute(t, arena)
	if a.Results != b.Results {
		t.Fatalf("streaming and materialized runs diverged:\n%+v\n%+v", a.Results, b.Results)
	}
}

// TestSourceMatchesTrace: a spec driven by a lazily generating source
// produces bit-identical Results to the same spec over the materialized
// trace — across scheduling variants, with the paper's policy, and down
// to the per-job records.
func TestSourceMatchesTrace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Spec)
	}{
		{"easy-nodvfs", nil},
		{"easy-policy", func(s *Spec) { s.Policy = PolicyConfig{BSLDThr: 2, WQThr: 16} }},
		{"conservative", func(s *Spec) { s.Variant = "conservative" }},
		{"sjf-sized", func(s *Spec) { s.Order = "sjf"; s.SizeFactor = 1.2 }},
		{"keep-collector", func(s *Spec) { s.KeepCollector = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := wgen.CTC()
			m.Jobs = 600
			src, err := wgen.Stream(m)
			if err != nil {
				t.Fatal(err)
			}
			trSpec, srcSpec := Spec{Trace: ctcTrace(t, 600)}, Spec{Source: src}
			if tc.mutate != nil {
				tc.mutate(&trSpec)
				tc.mutate(&srcSpec)
			}
			outA, outB := execute(t, compile(t, trSpec)), execute(t, compile(t, srcSpec))
			if outA.Results != outB.Results {
				t.Fatalf("streamed Results differ:\ntrace:  %+v\nsource: %+v", outA.Results, outB.Results)
			}
			if outA.CPUs != outB.CPUs || outA.PeakEvents != outB.PeakEvents {
				t.Fatalf("outcome metadata differs: cpus %d/%d peak %d/%d",
					outA.CPUs, outB.CPUs, outA.PeakEvents, outB.PeakEvents)
			}
			if !trSpec.KeepCollector {
				return
			}
			recA, recB := outA.Collector.Records(), outB.Collector.Records()
			if len(recA) != 600 || len(recB) != 600 {
				t.Fatalf("records %d/%d, want 600", len(recA), len(recB))
			}
			for i := range recA {
				if recA[i].Job.ID != recB[i].Job.ID || recA[i].Start != recB[i].Start ||
					recA[i].BSLD != recB[i].BSLD || recA[i].Energy != recB[i].Energy {
					t.Fatalf("record %d differs: %+v vs %+v", i, recA[i], recB[i])
				}
			}
		})
	}
}

// TestExecuteDeterministic: two compilations of one spec, each executed
// twice in sequence, produce identical Results.
func TestExecuteDeterministic(t *testing.T) {
	spec := Spec{Trace: ctcTrace(t, 400), Policy: PolicyConfig{BSLDThr: 2, WQThr: 16}}
	a, b := compile(t, spec), compile(t, spec)
	first := execute(t, a)
	for i, out := range []Outcome{execute(t, a), execute(t, b), execute(t, b)} {
		if out.Results != first.Results {
			t.Fatalf("execution %d diverged:\n%+v\n%+v", i+1, first.Results, out.Results)
		}
	}
}

// TestMachineSize: a no-policy run sizes the machine from the workload,
// scaled by SizeFactor or replaced by CPUs, and reports a plausible
// top-gear baseline.
func TestMachineSize(t *testing.T) {
	tr := ctcTrace(t, 400)
	for _, tc := range []struct {
		name string
		spec Spec
		cpus int
	}{
		{"trace_size", Spec{Trace: tr}, 430},
		{"size_factor", Spec{Trace: tr, SizeFactor: 1.2}, 516},
		{"explicit_cpus", Spec{Trace: tr, CPUs: 1000}, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := compile(t, tc.spec)
			out := execute(t, sc)
			if sc.CPUs() != tc.cpus || out.CPUs != tc.cpus {
				t.Errorf("cpus: scenario %d, outcome %d, want %d", sc.CPUs(), out.CPUs, tc.cpus)
			}
			r := out.Results
			if r.Jobs != 400 || r.ReducedJobs != 0 {
				t.Errorf("jobs %d reduced %d, want 400 and 0", r.Jobs, r.ReducedJobs)
			}
			if r.AvgBSLD < 1 || r.CompEnergy <= 0 || r.TotalEnergyLow <= r.CompEnergy {
				t.Errorf("implausible baseline: BSLD %v, comp %v, total %v", r.AvgBSLD, r.CompEnergy, r.TotalEnergyLow)
			}
		})
	}
}

// TestLargerSystemNoWorseBSLD: enlarging the machine never worsens job
// performance under the same workload — the monotonicity behind Figure 9.
func TestLargerSystemNoWorseBSLD(t *testing.T) {
	tr := ctcTrace(t, 400)
	small := execute(t, compile(t, Spec{Trace: tr}))
	big := execute(t, compile(t, Spec{Trace: tr, SizeFactor: 1.5}))
	if big.Results.AvgBSLD > small.Results.AvgBSLD*1.02 {
		t.Errorf("50%% larger system worsened BSLD: %v vs %v", big.Results.AvgBSLD, small.Results.AvgBSLD)
	}
}

// TestDVFSNeverIncreasesComputationalEnergy is the central energy claim:
// with the paper's power model, frequency scaling never raises
// computational energy and never improves BSLD, whatever the thresholds.
func TestDVFSNeverIncreasesComputationalEnergy(t *testing.T) {
	tr := ctcTrace(t, 400)
	for _, p := range []PolicyConfig{
		{BSLDThr: 1.5, WQThr: 0},
		{BSLDThr: 2, WQThr: 4},
		{BSLDThr: 2, WQThr: core.NoWQLimit},
		{BSLDThr: 3, WQThr: 16},
	} {
		pol, base, err := compile(t, Spec{Trace: tr, Policy: p}).ExecutePair()
		if err != nil {
			t.Fatal(err)
		}
		if pol.Results.ReducedJobs == 0 {
			t.Errorf("%+v: policy reduced no jobs on a moderately loaded trace", p)
		}
		if pol.Results.CompEnergy > base.Results.CompEnergy*(1+1e-9) {
			t.Errorf("%+v: DVFS comp energy %v exceeds baseline %v", p, pol.Results.CompEnergy, base.Results.CompEnergy)
		}
		if pol.Results.AvgBSLD < base.Results.AvgBSLD-1e-9 {
			t.Errorf("%+v: DVFS avg BSLD %v better than baseline %v", p, pol.Results.AvgBSLD, base.Results.AvgBSLD)
		}
	}
}

func TestWithBaseline(t *testing.T) {
	sc := compile(t, ctcSpec())
	base := sc.WithBaseline()
	if !base.Baseline() || sc.Baseline() {
		t.Fatalf("Baseline flags wrong: derived=%v original=%v", base.Baseline(), sc.Baseline())
	}
	if base.Hash() == sc.Hash() {
		t.Fatalf("baseline hash equals policy hash")
	}
	if base.WithBaseline() != base {
		t.Fatalf("WithBaseline on a baseline should return the receiver")
	}
	if base.CPUs() != sc.CPUs() || base.Workload() != sc.Workload() {
		t.Fatalf("baseline changed machine or workload")
	}
	out, baseOut, err := sc.ExecutePair()
	if err != nil {
		t.Fatal(err)
	}
	if out.Results.CompEnergy >= baseOut.Results.CompEnergy {
		t.Fatalf("DVFS energy %g not below baseline %g",
			out.Results.CompEnergy, baseOut.Results.CompEnergy)
	}
}

// TestExecutePair: ExecutePair runs the exact same machine twice — once
// with the policy, once at the top gear — since every normalized energy
// in the paper divides by such a baseline. The baseline leg is a plain
// no-policy run.
func TestExecutePair(t *testing.T) {
	tr := ctcTrace(t, 400)
	tiny := 1e-12
	cases := []struct {
		name  string
		spec  Spec
		cpus  int
		extra func(t *testing.T, pol, base Outcome)
	}{
		{"original_size", Spec{Trace: tr, Policy: PolicyConfig{BSLDThr: 2, WQThr: 16}}, 430, nil},
		{"enlarged", Spec{Trace: tr, Policy: PolicyConfig{BSLDThr: 2, WQThr: core.NoWQLimit}, SizeFactor: 1.5}, 645, nil},
		{"explicit_cpus", Spec{Trace: tr, Policy: PolicyConfig{BSLDThr: 3, WQThr: 0}, CPUs: 600}, 600, nil},
		{"fcfs_variant", Spec{Trace: tr, Policy: PolicyConfig{BSLDThr: 1.5, WQThr: 4}, Variant: "fcfs"}, 430, nil},
		{"beta_near_zero", Spec{Trace: tr, Policy: PolicyConfig{BSLDThr: 1.5, WQThr: core.NoWQLimit}, Beta: &tiny}, 430,
			func(t *testing.T, pol, base Outcome) {
				// With β≈0 the lowest gear never dilates, so wall-clock
				// schedules match the baseline and nearly every job is
				// reduced; the exception is a job whose wait alone pushes
				// predicted BSLD over the threshold, which falls back to
				// Ftop by design (Figure 1's else branch).
				if math.Abs(pol.Results.AvgWait-base.Results.AvgWait) > 1e-6 {
					t.Errorf("β≈0: wait changed (%v vs %v)", pol.Results.AvgWait, base.Results.AvgWait)
				}
				if pol.Results.ReducedJobs < pol.Results.Jobs*95/100 {
					t.Errorf("β≈0: reduced %d of %d jobs, want ≥95%%", pol.Results.ReducedJobs, pol.Results.Jobs)
				}
			}},
		{"keep_collector", Spec{Trace: tr, Policy: PolicyConfig{BSLDThr: 2, WQThr: 16}, KeepCollector: true}, 430,
			func(t *testing.T, pol, base Outcome) {
				if pol.Collector == nil || base.Collector == nil {
					t.Fatal("collector not kept on both legs")
				}
				if n := len(pol.Collector.WaitSeries()); n != 400 {
					t.Errorf("wait series = %d points, want 400", n)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, base, err := compile(t, tc.spec).ExecutePair()
			if err != nil {
				t.Fatal(err)
			}
			if pol.CPUs != tc.cpus || base.CPUs != tc.cpus {
				t.Errorf("machine sizes: policy %d, baseline %d, want %d", pol.CPUs, base.CPUs, tc.cpus)
			}
			if pol.Results.Jobs != 400 || base.Results.Jobs != 400 {
				t.Errorf("jobs: policy %d, baseline %d, want 400", pol.Results.Jobs, base.Results.Jobs)
			}
			if base.Results.ReducedJobs != 0 || pol.Results.ReducedJobs == 0 {
				t.Errorf("reduced jobs: policy %d, baseline %d", pol.Results.ReducedJobs, base.Results.ReducedJobs)
			}
			if base.Policy == pol.Policy {
				t.Errorf("baseline policy name %q equals the DVFS policy's", base.Policy)
			}
			if !tc.spec.KeepCollector && (pol.Collector != nil || base.Collector != nil) {
				t.Error("collector kept without KeepCollector")
			}
			// The baseline leg must be identical to a plain no-policy run.
			plain := tc.spec
			plain.Policy = PolicyConfig{}
			if want := execute(t, compile(t, plain)); base.Results != want.Results {
				t.Error("baseline leg differs from a direct no-policy run")
			}
			if tc.extra != nil {
				tc.extra(t, pol, base)
			}
		})
	}
}

// TestExecutePairPropagatesErrors: a workload failure on either leg
// surfaces from ExecutePair rather than a half-filled pair. The factory
// succeeds on the compile-time probe and fails on the nth call after it.
func TestExecutePairPropagatesErrors(t *testing.T) {
	tr := ctcTrace(t, 50)
	for leg, failAt := range map[string]int{"policy": 1, "baseline": 2} {
		calls := 0
		factory := func() (workload.JobSource, error) {
			defer func() { calls++ }()
			if calls == failAt {
				return nil, fmt.Errorf("source %d unavailable", calls)
			}
			return tr.Source(), nil
		}
		sc := compile(t, Spec{Factory: factory, Policy: PolicyConfig{BSLDThr: 2, WQThr: 16}})
		pol, base, err := sc.ExecutePair()
		if err == nil || !strings.Contains(err.Error(), "unavailable") {
			t.Errorf("%s leg: error %v, want the factory's", leg, err)
		}
		if pol.Results.Jobs != 0 || base.Results.Jobs != 0 {
			t.Errorf("%s leg: failed pair returned results %+v / %+v", leg, pol.Results, base.Results)
		}
	}
}

// TestSchedulingOptionsPassThrough: the queue order, the reservation
// depth and the selection policy reach the scheduler.
func TestSchedulingOptionsPassThrough(t *testing.T) {
	t.Run("order_and_reservations", func(t *testing.T) {
		// The saturated SDSC model keeps a deep queue, so the order
		// visibly changes the schedule.
		m := wgen.SDSC()
		m.Jobs = 400
		sdsc, err := wgen.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		run := func(spec Spec) Outcome {
			t.Helper()
			spec.Trace = sdsc
			return execute(t, compile(t, spec))
		}
		fcfs, sjf := run(Spec{}), run(Spec{Order: "sjf"})
		if sjf.Results.AvgWait == fcfs.Results.AvgWait {
			t.Error("SJF order produced the identical schedule; option not applied")
		}
		if flex := run(Spec{Reservations: 8}); flex.Results.Jobs != fcfs.Results.Jobs {
			t.Error("flexible run lost jobs")
		}
		// Deep flexible backfilling equals conservative.
		deep, cons := run(Spec{Reservations: 1 << 20}), run(Spec{Variant: "conservative"})
		if deep.Results.AvgWait != cons.Results.AvgWait {
			t.Errorf("deep flexible wait %v != conservative %v", deep.Results.AvgWait, cons.Results.AvgWait)
		}
	})
	t.Run("selection", func(t *testing.T) {
		tr := ctcTrace(t, 400)
		ff := execute(t, compile(t, Spec{Trace: tr}))
		cont := execute(t, compile(t, Spec{Trace: tr, Selection: "contiguous"}))
		// Identical scheduling metrics (processor identity is timing-neutral)...
		if ff.Results.AvgWait != cont.Results.AvgWait || ff.Results.AvgBSLD != cont.Results.AvgBSLD {
			t.Error("selection policy changed scheduling times on a flat machine")
		}
		// ...but placement contiguity improves or holds.
		if cont.Results.MeanAllocRuns > ff.Results.MeanAllocRuns {
			t.Errorf("contiguous selection runs %v worse than first fit %v",
				cont.Results.MeanAllocRuns, ff.Results.MeanAllocRuns)
		}
	})
}

// TestSourceRepeatable: execution rewinds a shared source cursor, so the
// same scenario runs any number of times in sequence, ExecutePair
// included.
func TestSourceRepeatable(t *testing.T) {
	src, err := wgen.ResolveSource("CTC", 0, 200, workload.SWFFilter{})
	if err != nil {
		t.Fatal(err)
	}
	shared := compile(t, Spec{Source: src, Policy: PolicyConfig{BSLDThr: 2, WQThr: 16}})
	first, second := execute(t, shared), execute(t, shared)
	if first.Results != second.Results {
		t.Error("rerun over the same source diverged")
	}
	withPol, base, err := shared.ExecutePair()
	if err != nil {
		t.Fatal(err)
	}
	if withPol.Results != first.Results {
		t.Error("ExecutePair policy leg diverged from Execute")
	}
	if base.Results == first.Results {
		t.Error("baseline unexpectedly identical to the policy run")
	}
}

// boundPolicy is a stateful policy-cum-controller without a clone seam.
type boundPolicy struct{ sched.FixedGear }

func (boundPolicy) Bind(*sched.System) {}

func (boundPolicy) ControlPass(*sched.System, float64) {}

// clonablePolicy adds the seam, counting how often it is exercised.
type clonablePolicy struct {
	boundPolicy
	clones *int
}

func (p clonablePolicy) ClonePolicy() sched.GearPolicy {
	*p.clones++
	return p.boundPolicy
}

func TestConcurrentSafety(t *testing.T) {
	// The factory/trace paths are safe by construction.
	if sc := compile(t, ctcSpec()); !sc.ConcurrentSafe() {
		t.Error("named-workload scenario should be concurrent-safe")
	}

	// A shared single cursor is not.
	src, err := wgen.ResolveSource("CTC", 0, 200, workload.SWFFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if sc := compile(t, Spec{Source: src}); sc.ConcurrentSafe() {
		t.Error("shared-cursor scenario must not be concurrent-safe")
	}

	// Shared recorders are not.
	s := ctcSpec()
	s.ExtraRecorders = []sched.Recorder{sched.MultiRecorder{}}
	if sc := compile(t, s); sc.ConcurrentSafe() {
		t.Error("extra-recorder scenario must not be concurrent-safe")
	}

	// A controller-implementing policy without PolicyCloner shares
	// mutable state.
	s = ctcSpec()
	s.GearPolicy = boundPolicy{}
	if sc := compile(t, s); sc.ConcurrentSafe() {
		t.Error("bound policy without a clone seam must not be concurrent-safe")
	}

	// With the seam it is safe again, and each execution gets its own clone.
	clones := 0
	s = ctcSpec()
	s.GearPolicy = clonablePolicy{clones: &clones}
	sc := compile(t, s)
	if !sc.ConcurrentSafe() {
		t.Error("clonable bound policy should be concurrent-safe")
	}
	sc.executionPolicy()
	sc.executionPolicy()
	if clones != 2 {
		t.Errorf("executionPolicy exercised the clone seam %d times, want 2", clones)
	}
}

// TestPolicyPredictsWithSpecShortJobTh: one Th per run. A data-level
// policy must predict BSLD with the spec's Th — the Th the collector
// reports it with — so it runs exactly like a pre-built policy carrying
// that Th, hash included. An explicit default Th stays the nil scenario.
func TestPolicyPredictsWithSpecShortJobTh(t *testing.T) {
	th := 3600.0
	data := ctcSpec()
	data.ShortJobTh = &th
	prebuilt := ctcSpec()
	prebuilt.ShortJobTh = &th
	gears := dvfs.PaperGearSet()
	pol, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: 4, ShortJobThreshold: th},
		gears, dvfs.NewTimeModel(DefaultBeta, gears))
	if err != nil {
		t.Fatal(err)
	}
	prebuilt.GearPolicy = pol
	a, b := compile(t, data), compile(t, prebuilt)
	if a.Hash() != b.Hash() {
		t.Errorf("data-level and pre-built Th=%g policies hash differently", th)
	}
	outA, err := a.Execute()
	if err != nil {
		t.Fatal(err)
	}
	outB, err := b.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if outA.Results != outB.Results {
		t.Errorf("data-level policy ignored ShortJobTh=%g:\n%+v\n%+v", th, outA.Results, outB.Results)
	}

	def := core.DefaultShortJobThreshold
	explicit := ctcSpec()
	explicit.ShortJobTh = &def
	if compile(t, explicit).Hash() != compile(t, ctcSpec()).Hash() {
		t.Error("explicit default ShortJobTh moved the hash")
	}
}
