package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// Determinism regression for the hot-path refactor: the optimized
// implementation (streamed arrivals, tombstoned run list, reused scratch)
// must replay every trace identically to the seed implementation
// (upfront arrival heap, linear-scan removal, per-pass allocation) under
// every base policy and queue order. Start and end times are compared
// exactly — any ordering drift in the run-list iteration or the event
// heap shows up as a changed schedule.
func TestCompatModesProduceIdenticalSchedules(t *testing.T) {
	type fixture struct {
		name    string
		variant Variant
		order   Order
		resv    int
		// phases replays phasesTrace instead of randomTrace and audits
		// that the default mode moved between passes without the profile
		// and passes with it, loading and dropping it along the way.
		phases bool
	}
	fixtures := []fixture{
		{"easy", EASY, FCFSOrder, 0, false},
		{"fcfs", FCFS, FCFSOrder, 0, false},
		{"conservative", Conservative, FCFSOrder, 0, false},
		{"easy-sjf", EASY, SJFOrder, 0, false},
		{"flexible-4", EASY, FCFSOrder, 4, false},
		{"conservative-sjf", Conservative, SJFOrder, 0, false},
		{"conservative-phases", Conservative, FCFSOrder, 0, true},
		{"flexible-4-phases", EASY, FCFSOrder, 4, true},
	}
	gears := dvfs.PaperGearSet()
	policies := map[string]func() GearPolicy{
		"top": topPolicy,
		// The wait/wq-sensitive policy flips gears as queues grow and
		// earliest starts drift, stressing the persistent profile's
		// changed-prefix revalidation: a retained reservation may only be
		// reused when re-asking the policy provably returns the same gear.
		"varying": func() GearPolicy { return varyingPolicy{gears: gears} },
		// The boosting policy re-gears running jobs from ControlPass, so the
		// persistent profile must swap their base occupancies mid-epoch.
		"boosting": func() GearPolicy { return boostingPolicy{gears: gears} },
	}
	run := func(fx fixture, pol GearPolicy, compat Compat, seed int64) (map[int]float64, map[int]float64) {
		rec := newAudit(t, 16)
		obs := &phaseAudit{}
		sys, err := New(Config{
			CPUs:         16,
			Gears:        gears,
			TimeModel:    dvfs.NewTimeModel(0.5, gears),
			Policy:       pol,
			Variant:      fx.variant,
			Order:        fx.order,
			Reservations: fx.resv,
			Recorder:     MultiRecorder{rec, obs},
			Compat:       compat,
		})
		if err != nil {
			t.Fatal(err)
		}
		obs.sys = sys
		tr := randomTrace(seed, 16, 250)
		if fx.phases {
			tr = phasesTrace(seed, 16)
		}
		if err := sys.Simulate(tr); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if fx.phases && compat == (Compat{}) {
			// The references only cover the profile's load and drop if
			// the default mode really went through them.
			if obs.idle == 0 || obs.blocked == 0 || obs.loads < 2 || obs.drops == 0 {
				t.Fatalf("seed %d: phases fixture too weak: %d passes without the profile, %d blocked passes, %d loads, %d drops",
					seed, obs.idle, obs.blocked, obs.loads, obs.drops)
			}
		}
		return rec.starts, rec.ends
	}
	compats := map[string]Compat{
		"seed":           SeedCompat(),
		"stream-only":    {ScanRemoval: true, ScratchAlloc: true},
		"tombstone-only": {UpfrontArrivals: true, ScratchAlloc: true},
		// Rebuild-per-pass over the chunked index snapshot and over the
		// flat slice: both must match the persistent-profile default.
		"rebuild-profile": {RebuildProfile: true},
		"rebuild-slice":   {RebuildProfile: true, SliceReleases: true},
		// The PR 3–5 memmove-backed release cache, the differential
		// reference for the chunked ordered release index.
		"slice-releases": {SliceReleases: true},
		// The PR 6–8 flat profile tiers (pending buffer + skyline tree +
		// flat reservation slices), the differential reference for the
		// chunked skyline and reservation indexes.
		"flat-resv": {FlatReservations: true},
	}
	for _, fx := range fixtures {
		for pname, mk := range policies {
			t.Run(fx.name+"/"+pname, func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					wantStarts, wantEnds := run(fx, mk(), Compat{}, seed)
					for cname, c := range compats {
						gotStarts, gotEnds := run(fx, mk(), c, seed)
						if len(gotStarts) != len(wantStarts) {
							t.Fatalf("seed %d %s: %d jobs started, optimized %d",
								seed, cname, len(gotStarts), len(wantStarts))
						}
						for id, st := range wantStarts {
							if gotStarts[id] != st {
								t.Fatalf("seed %d %s: job %d start %v, optimized %v",
									seed, cname, id, gotStarts[id], st)
							}
							if gotEnds[id] != wantEnds[id] {
								t.Fatalf("seed %d %s: job %d end %v, optimized %v",
									seed, cname, id, gotEnds[id], wantEnds[id])
							}
						}
					}
				}
			})
		}
	}
}

// phaseAudit counts, from pass-end samples, how a replanning replay moved
// between its two pass kinds: passes that begin with no reservation held
// (the queue drained at the previous pass end) run without the profile,
// passes that end with jobs waiting used it. loads counts the passes that
// brought the profile up from not live, drops those that dropped it.
type phaseAudit struct {
	sys                         *System
	idle, blocked, loads, drops int
	queued, live                bool
}

func (*phaseAudit) JobStarted(*RunState, float64)  {}
func (*phaseAudit) JobFinished(*RunState, float64) {}

func (a *phaseAudit) PassEnd(now float64, queued, busy int) {
	if !a.queued {
		a.idle++
	}
	if queued > 0 {
		a.blocked++
	}
	switch {
	case !a.live && a.sys.profLive:
		a.loads++
	case a.live && !a.sys.profLive:
		a.drops++
	}
	a.queued, a.live = queued > 0, a.sys.profLive
}

// phasesTrace alternates drained phases — single small jobs spaced so
// nothing ever waits, with pairs that end together at their kill limit —
// and deep-queue bursts of wide jobs; each drained phase starts only once
// the burst before it has fully run, even one job at a time at the
// slowest gear, so every burst's queue drains before the next phase.
func phasesTrace(seed int64, cpus int) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &workload.Trace{Name: "phases", CPUs: cpus}
	add := func(at, rt, rq float64, procs int) {
		tr.Jobs = append(tr.Jobs, &workload.Job{
			ID: len(tr.Jobs) + 1, Submit: at, Runtime: rt, ReqTime: rq, Procs: procs, Beta: -1,
		})
	}
	const slowest = 2 // bounds the paper gear set's dilation at β = 0.5
	at := 0.0
	for phase := 0; phase < 6; phase++ {
		if phase%2 == 0 {
			for i := 0; i < 40; i++ {
				at += 40
				if i%8 == 7 {
					// Kill-limit-exact pair: the first completion's pass
					// finds the other's planned release at now.
					procs := 1 + r.Intn(4)
					add(at, 10, 10, procs)
					add(at, 10, 10, procs)
					continue
				}
				rt := 1 + r.Float64()*9
				add(at, rt, rt*(1+r.Float64()), 1+r.Intn(4))
			}
			at += 40
			continue
		}
		span := 0.0
		for i := 0; i < 40; i++ {
			rt := 20 + r.Float64()*200
			rq := rt * (1 + r.Float64())
			add(at+float64(i), rt, rq, 1+r.Intn(cpus))
			span += rq * slowest
		}
		at += span
	}
	return tr
}

// varyingPolicy is a deterministic gear policy whose decisions depend on
// everything a pass may change — the queue depth and the reservation's
// earliest start — so any stale reservation reuse in the persistent
// profile shows up as a schedule divergence.
type varyingPolicy struct {
	gears dvfs.GearSet
}

func (p varyingPolicy) Name() string { return "varying" }

// EstMonotone marks the policy for the widened changed-prefix analysis:
// as the start grows the decision flips gears[0] -> Top at the 120 s
// wait boundary and never back, so it satisfies the monotonicity
// contract while still being genuinely start-dependent — the compat
// fixtures therefore differentially pin the widened reuse path against
// every non-widened mode. boostingPolicy stays unmarked on purpose, so
// the conservative any-mutation-replans path keeps coverage too.
func (varyingPolicy) EstMonotone() {}

func (p varyingPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	if wqOthers > 3 {
		return p.gears.Top()
	}
	if start-j.Submit > 120 {
		return p.gears.Top()
	}
	return p.gears[0]
}

func (p varyingPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	start := len(p.gears) - 1
	if wqOthers <= 3 && now-j.Submit <= 120 {
		start = 0
	}
	for i := start; i < len(p.gears); i++ {
		if feasible(p.gears[i]) {
			return p.gears[i], true
		}
	}
	return dvfs.Gear{}, false
}

// boostingPolicy starts everything at the lowest gear and raises running
// reduced jobs to the top gear whenever more than two jobs wait — the
// paper's dynamic boost shape — so gear switches (SetGear) hit the
// persistent profile's occupancy-swap path on every variant.
type boostingPolicy struct {
	gears dvfs.GearSet
}

func (p boostingPolicy) Name() string { return "boosting" }

func (p boostingPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	return p.gears[0]
}

func (p boostingPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	for _, g := range p.gears {
		if feasible(g) {
			return g, true
		}
	}
	return dvfs.Gear{}, false
}

func (p boostingPolicy) Bind(*System) {}

func (p boostingPolicy) ControlPass(sys *System, now float64) {
	if sys.QueueLen() <= 2 {
		return
	}
	top := p.gears.Top()
	for _, rs := range sys.Running() {
		if rs.Gear != top {
			sys.SetGear(rs, top, now)
		}
	}
}

// The tombstoned run list must preserve start order across heavy churn:
// Running() always reports live jobs in the order they started, and the
// indexes stay consistent after compaction.
func TestRunListTombstoneCompaction(t *testing.T) {
	checker := runOrderChecker{t: t}
	sys := paperSystem(t, 8, EASY, orderAuditPolicy{checker: &checker}, nil)
	tr := randomTrace(7, 8, 300)
	if err := sys.Simulate(tr); err != nil {
		t.Fatal(err)
	}
	if sys.runningCount() != 0 {
		t.Errorf("runningCount = %d after drain, want 0", sys.runningCount())
	}
	if checker.passes == 0 {
		t.Fatal("order checker never ran")
	}
}

type runOrderChecker struct {
	t      *testing.T
	passes int
}

// orderAuditPolicy verifies Running()'s ordering and index invariants
// after every pass, mid-simulation, where tombstones are live.
type orderAuditPolicy struct {
	checker *runOrderChecker
}

func (p orderAuditPolicy) Name() string { return "order-audit" }
func (p orderAuditPolicy) ReserveGear(j *workload.Job, start, now float64, wq int) dvfs.Gear {
	return dvfs.PaperGearSet().Top()
}
func (p orderAuditPolicy) BackfillGear(j *workload.Job, now float64, wq int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	g := dvfs.PaperGearSet().Top()
	return g, feasible(g)
}
func (p orderAuditPolicy) Bind(*System) {}
func (p orderAuditPolicy) ControlPass(sys *System, now float64) {
	p.checker.passes++
	running := sys.Running()
	for i, rs := range running {
		if rs == nil {
			p.checker.t.Fatalf("Running()[%d] is nil", i)
		}
		if rs.runIdx != i {
			p.checker.t.Fatalf("Running()[%d].runIdx = %d", i, rs.runIdx)
		}
		if i > 0 && rs.Start < running[i-1].Start {
			p.checker.t.Fatalf("Running() out of start order at %d: %v < %v",
				i, rs.Start, running[i-1].Start)
		}
	}
	if got := sys.runningCount(); got != len(running) {
		p.checker.t.Fatalf("runningCount = %d, Running() has %d", got, len(running))
	}
}
