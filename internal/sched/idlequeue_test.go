package sched

import (
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// wqGearPolicy picks gears from the queue-depth argument alone, so any
// drift in the depth a head start passes changes the job's gear, and with
// it its end, against the rebuild reference.
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
	build := func(variant Variant, resv int, pol GearPolicy, compat Compat, rec Recorder) *System {
		sys, err := New(Config{
			CPUs: 16, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears),
			Policy: pol, Variant: variant, Reservations: resv, Recorder: rec, Compat: compat,
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
				got, want := newAudit(t, 16), newAudit(t, 16)
				sys := build(v.variant, v.resv, pol, Compat{}, got)
				if err := sys.Simulate(tr); err != nil {
					t.Fatal(err)
				}
				if sys.prof != nil || sys.relLive || sys.relLoads != 0 || sys.relIdx.len() != 0 {
					t.Fatalf("never-blocked replay built the profile (%v) or the release schedule (live %v, %d loads, %d releases)",
						sys.prof != nil, sys.relLive, sys.relLoads, sys.relIdx.len())
				}
				ref := build(v.variant, v.resv, pol, Compat{RebuildProfile: true}, want)
				if err := ref.Simulate(tr); err != nil {
					t.Fatal(err)
				}
				for id, st := range want.starts {
					if got.starts[id] != st || got.ends[id] != want.ends[id] || got.gears[id] != want.gears[id] {
						t.Fatalf("job %d: start %v end %v gear %v, rebuild reference %v %v %v",
							id, got.starts[id], got.ends[id], got.gears[id], st, want.ends[id], want.gears[id])
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
		sys := build(Conservative, 0, topPolicy(), Compat{}, audit)
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
