package sched

import (
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// wqGearPolicy picks gears from the queue-depth argument alone, so any
// drift in the depth a head start passes changes the job's gear, and with
// it its end.
type wqGearPolicy struct {
	gears dvfs.GearSet
}

func (p wqGearPolicy) Name() string { return "wq-gear" }

func (p wqGearPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	return p.gears[wqOthers%len(p.gears)]
}

func (p wqGearPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	for i := range p.gears {
		if g := p.gears[(wqOthers+i)%len(p.gears)]; feasible(g) {
			return g, true
		}
	}
	return dvfs.Gear{}, false
}

// idleAudit checks the replanning variants' profile lifecycle after every
// pass: nothing is built before the first blocked pass, that pass loads
// the profile, a live profile never carries reservations into a pass that
// runs without it, and its base delta count stays bounded.
type idleAudit struct {
	t   *testing.T
	sys *System

	events         int // starts and completions since the last pass end
	queued, live   bool
	deltas         int
	blocked        int // passes that ended with jobs waiting
	loads, drops   int // profile brought up from not live, and dropped
	liveIdlePasses int // passes run without the profile while it was live
}

func (a *idleAudit) JobStarted(*RunState, float64)  { a.events++ }
func (a *idleAudit) JobFinished(*RunState, float64) { a.events++ }

func (a *idleAudit) PassEnd(now float64, queued, busy int) {
	s := a.sys
	if queued > 0 {
		a.blocked++
		if a.blocked == 1 && (!s.profLive || s.relLoads != 1) {
			a.t.Fatalf("t=%v: first blocked pass left the profile live=%v after %d release loads", now, s.profLive, s.relLoads)
		}
	} else if a.blocked == 0 && (s.prof != nil || s.relLive || s.relLoads != 0) {
		a.t.Fatalf("t=%v: no pass blocked yet, but the profile exists (%v) or the release schedule is live (%v, %d loads)",
			now, s.prof != nil, s.relLive, s.relLoads)
	}
	switch {
	case !a.live && s.profLive:
		a.loads++
	case a.live && !s.profLive:
		a.drops++
	}
	if s.profLive {
		if n, bound := s.prof.BaseDeltas(), 4*s.runningCount()+256; n > bound {
			a.t.Fatalf("t=%v: %d base deltas, bound %d", now, n, bound)
		}
		if len(s.resvMeta) == 0 && s.prof.Reservations() != 0 {
			a.t.Fatalf("t=%v: next pass runs without the profile, which holds %d reservations", now, s.prof.Reservations())
		}
		if !a.queued && queued == 0 && a.live {
			// A pass without the profile: each start adds one delta (its
			// start folds at the advanced horizon), each completion at
			// most one (its credit's tail cancels the occupancy end).
			a.liveIdlePasses++
			if n := s.prof.BaseDeltas(); n > a.deltas+a.events {
				a.t.Fatalf("t=%v: base deltas grew %d -> %d over %d starts and completions", now, a.deltas, n, a.events)
			}
		}
		a.deltas = s.prof.BaseDeltas()
	}
	a.queued, a.live, a.events = queued > 0, s.profLive, 0
}

// TestConservativeIdleQueueSkipsProfile pins the replanning variants'
// pass without the profile: while no job holds a reservation, heads start
// against the free processor count, the availability profile and the
// release schedule are built only by the first blocked pass, and a live
// profile is kept bounded (or dropped) through the idle passes after it.
func TestConservativeIdleQueueSkipsProfile(t *testing.T) {
	gears := dvfs.PaperGearSet()
	tm := dvfs.NewTimeModel(0.5, gears)
	build := func(variant Variant, resv int, pol GearPolicy, rec Recorder) *System {
		sys, err := New(Config{
			CPUs: 16, Gears: gears, TimeModel: tm,
			Policy: pol, Variant: variant, Reservations: resv, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	t.Run("never-blocked", func(t *testing.T) {
		// Bursts that fill the machine exactly: the last job of each
		// burst fits the free processors with none to spare.
		bursts := [][]int{{16}, {8, 8}, {4, 4, 4, 4}, {1, 2, 3, 10}, {5, 11}}
		tr := &workload.Trace{Name: "exact-fit", CPUs: 16}
		for i := 0; i < 100; i++ {
			for _, procs := range bursts[i%len(bursts)] {
				tr.Jobs = append(tr.Jobs, &workload.Job{
					ID: len(tr.Jobs) + 1, Submit: float64(100 * i), Runtime: float64(20 + 10*(i%3)), ReqTime: 40, Procs: procs, Beta: -1,
				})
			}
		}
		for _, v := range []struct {
			name    string
			variant Variant
			resv    int
		}{{"conservative", Conservative, 0}, {"flexible-4", EASY, 4}} {
			t.Run(v.name, func(t *testing.T) {
				pol := wqGearPolicy{gears: gears}
				got := newAudit(t, 16)
				sys := build(v.variant, v.resv, pol, got)
				if err := sys.Simulate(tr); err != nil {
					t.Fatal(err)
				}
				if sys.prof != nil || sys.relLive || sys.relLoads != 0 || sys.relIdx.len() != 0 {
					t.Fatalf("never-blocked replay built the profile (%v) or the release schedule (live %v, %d loads, %d releases)",
						sys.prof != nil, sys.relLive, sys.relLoads, sys.relIdx.len())
				}
				// Nothing ever waits, so every job starts at its submit
				// time, alone in the queue: the gear is the policy's
				// immediate-start choice at queue depth 0.
				for _, j := range tr.Jobs {
					g := pol.ReserveGear(j, j.Submit, j.Submit, 0)
					end := j.Submit + j.EffectiveRuntime()*tm.CoefWithBeta(j.Beta, g)
					if got.starts[j.ID] != j.Submit || got.ends[j.ID] != end || got.gears[j.ID] != g {
						t.Fatalf("job %d: start %v end %v gear %v, want %v %v %v",
							j.ID, got.starts[j.ID], got.ends[j.ID], got.gears[j.ID], j.Submit, end, g)
					}
				}
			})
		}
	})
	t.Run("block-then-idle", func(t *testing.T) {
		tr := &workload.Trace{Name: "block-idle-block", CPUs: 16}
		add := func(at, rt, rq float64, procs int) {
			tr.Jobs = append(tr.Jobs, &workload.Job{
				ID: len(tr.Jobs) + 1, Submit: at, Runtime: rt, ReqTime: rq, Procs: procs, Beta: -1,
			})
		}
		block := func(at float64) {
			for i := 0; i < 6; i++ {
				add(at+float64(i), 100, 120, 10)
			}
		}
		block(0)
		// A long idle stretch: one small job at a time, ~600 passes with
		// no job waiting, far beyond the 4*running+256 delta bound.
		for i := 0; i < 600; i++ {
			add(2000+float64(10*i), 5, 8, 1+i%4)
		}
		block(9000)
		audit := &idleAudit{t: t}
		sys := build(Conservative, 0, topPolicy(), audit)
		audit.sys = sys
		if err := sys.Simulate(tr); err != nil {
			t.Fatal(err)
		}
		if audit.blocked < 2 || audit.liveIdlePasses == 0 || audit.drops == 0 || audit.loads < 2 {
			t.Fatalf("fixture too weak: %d blocked passes, %d idle passes with the profile live, %d drops, %d loads",
				audit.blocked, audit.liveIdlePasses, audit.drops, audit.loads)
		}
		if sys.relLoads != 1 {
			t.Errorf("%d release schedule loads, want 1", sys.relLoads)
		}
	})
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

// TestPhasesTraceLoadsAndDropsProfile guards the phase fixture the
// oracle suite replays: on the replanning variants it must move between
// passes without the profile and blocked passes with it, loading the
// profile more than once and dropping it in between, so the oracle
// comparison covers the profile's load and drop.
func TestPhasesTraceLoadsAndDropsProfile(t *testing.T) {
	gears := dvfs.PaperGearSet()
	for _, v := range []struct {
		name    string
		variant Variant
		resv    int
	}{{"conservative", Conservative, 0}, {"flexible-4", EASY, 4}} {
		for seed := int64(1); seed <= 4; seed++ {
			obs := &phaseAudit{}
			sys, err := New(Config{
				CPUs: 16, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears),
				Policy: topPolicy(), Variant: v.variant, Reservations: v.resv,
				Recorder: MultiRecorder{newAudit(t, 16), obs},
			})
			if err != nil {
				t.Fatal(err)
			}
			obs.sys = sys
			if err := sys.Simulate(phasesTrace(seed, 16)); err != nil {
				t.Fatal(err)
			}
			if obs.idle == 0 || obs.blocked == 0 || obs.loads < 2 || obs.drops == 0 {
				t.Fatalf("%s seed %d: phases fixture too weak: %d passes without the profile, %d blocked passes, %d loads, %d drops",
					v.name, seed, obs.idle, obs.blocked, obs.loads, obs.drops)
			}
		}
	}
}
