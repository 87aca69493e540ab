package sched

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// runningSpec is one running job held by a shadow edge-case fixture.
type runningSpec struct {
	cpus int
	end  float64
}

// buildVariantSystem constructs a System mid-simulation like
// buildRunningSystem, but for any variant, so the shadow sweep can be
// probed over the release index each variant keeps (the schedule
// materializes lazily from the run list on the first sweep, so the
// white-box run list is picked up).
func buildVariantSystem(t *testing.T, total int, variant Variant, running []runningSpec) *System {
	t.Helper()
	gears := dvfs.PaperGearSet()
	sys, err := New(Config{
		CPUs: total, Gears: gears,
		TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy:    FixedGear{Gear: gears.Top()},
		Variant:   variant,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range running {
		alloc, err := sys.cl.Allocate(r.cpus, 0)
		if err != nil {
			t.Fatalf("setup allocation: %v", err)
		}
		sys.runList = append(sys.runList, &RunState{
			Job:        &workload.Job{ID: i + 1, Procs: r.cpus, Runtime: r.end, ReqTime: r.end, Beta: -1},
			Gear:       gears.Top(),
			PlannedEnd: r.end,
			Alloc:      alloc,
		})
	}
	return sys
}

// seedShadow is the seed-era shadow computation, kept as the reference:
// rebuild the release list from the running jobs, clamp every release to
// strictly after now, sort, and consume releases until the head fits,
// then absorb the rest of the equal-time group at the shadow instant.
func seedShadow(running []runningSpec, total, headProcs int, now float64) (float64, int) {
	type rel struct {
		t    float64
		cpus int
	}
	avail := total
	var rels []rel
	for _, r := range running {
		avail -= r.cpus
		rels = append(rels, rel{t: clampRelease(r.end, now), cpus: r.cpus})
	}
	sort.SliceStable(rels, func(i, j int) bool { return rels[i].t < rels[j].t })
	shadowT := now
	i := 0
	for ; i < len(rels) && avail < headProcs; i++ {
		avail += rels[i].cpus
		shadowT = rels[i].t
	}
	for ; i < len(rels) && rels[i].t == shadowT; i++ {
		avail += rels[i].cpus
	}
	return shadowT, avail - headProcs
}

// TestShadowEdgeCasesPinnedAgainstSeed pins the release-index shadow
// sweep, on the EASY and the conservative system alike, against the
// seed-era rebuild-clamp-sort reference and against hand-computed
// values on the boundary shapes where the clamp and the equal-time
// grouping interact:
//
//   - every release at or before now, so the whole schedule clamps onto
//     one shared instant (math.Nextafter(now, +inf));
//   - a head job larger than any release prefix, so the sweep must
//     consume the entire schedule;
//   - an equal-time release group spanning the availability threshold,
//     whose tail must still count toward the extra-processor pool;
//   - the head already fitting, where no release may be consumed.
func TestShadowEdgeCasesPinnedAgainstSeed(t *testing.T) {
	cases := []struct {
		name      string
		total     int
		running   []runningSpec
		headProcs int
		now       float64
		// wantT (NaN: one ulp after now) and wantExtra are the
		// hand-computed shadow.
		wantT     float64
		wantExtra int
	}{
		{
			// All three planned ends are <= now: each clamps to the same
			// one-ulp-after-now instant, forming a single release group.
			name:  "all-clamped-to-now",
			total: 16,
			running: []runningSpec{
				{cpus: 4, end: 10}, {cpus: 6, end: 55}, {cpus: 6, end: 100},
			},
			headProcs: 12,
			now:       100,
			wantT:     math.NaN(),
			wantExtra: 4,
		},
		{
			// The head needs the whole machine: no proper release prefix
			// frees enough, so the sweep runs off the end of the schedule.
			name:  "head-larger-than-any-prefix",
			total: 16,
			running: []runningSpec{
				{cpus: 2, end: 20}, {cpus: 3, end: 40}, {cpus: 5, end: 60}, {cpus: 6, end: 80},
			},
			headProcs: 16,
			now:       5,
			wantT:     80,
			wantExtra: 0,
		},
		{
			// Five releases share t=50; availability crosses the head's
			// need mid-group, and the group's tail still counts as extra.
			name:  "equal-time-group-spans-threshold",
			total: 20,
			running: []runningSpec{
				{cpus: 4, end: 50}, {cpus: 4, end: 50}, {cpus: 4, end: 50},
				{cpus: 4, end: 50}, {cpus: 4, end: 50},
			},
			headProcs: 6,
			now:       10,
			wantT:     50,
			wantExtra: 14,
		},
		{
			// Equal-time group at the clamp instant: two jobs at their
			// kill limit plus one strictly-later release; the head fits
			// after the clamped group alone.
			name:  "clamped-group-plus-future-release",
			total: 12,
			running: []runningSpec{
				{cpus: 4, end: 30}, {cpus: 4, end: 30}, {cpus: 4, end: 90},
			},
			headProcs: 8,
			now:       30,
			wantT:     math.NaN(),
			wantExtra: 0,
		},
		{
			// The head fits right now: the sweep must consume nothing and
			// report the shadow at now itself.
			name:  "head-fits-immediately",
			total: 16,
			running: []runningSpec{
				{cpus: 4, end: 25}, {cpus: 4, end: 25},
			},
			headProcs: 8,
			now:       3,
			wantT:     3,
			wantExtra: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			head := &workload.Job{ID: 999, Procs: tc.headProcs, Runtime: 10, ReqTime: 10, Beta: -1}

			wantT, wantExtra := seedShadow(tc.running, tc.total, tc.headProcs, tc.now)
			pinT := tc.wantT
			if math.IsNaN(pinT) {
				pinT = math.Nextafter(tc.now, math.Inf(1))
			}
			if wantT != pinT || wantExtra != tc.wantExtra {
				t.Fatalf("seed reference shadow = (%v, %d), hand-computed (%v, %d)", wantT, wantExtra, pinT, tc.wantExtra)
			}

			paths := []struct {
				name    string
				variant Variant
			}{
				{"easy", EASY},
				{"conservative", Conservative},
			}
			for _, p := range paths {
				sys := buildVariantSystem(t, tc.total, p.variant, tc.running)
				gotT, gotExtra := sys.shadow(head, tc.now)
				if gotT != wantT || gotExtra != wantExtra {
					t.Errorf("%s: shadow = (%v, %d), seed reference (%v, %d)",
						p.name, gotT, gotExtra, wantT, wantExtra)
				}
				if err := checkRelIndexInvariants(&sys.relIdx); err != nil {
					t.Errorf("%s: %v", p.name, err)
				}
				// The sweep must not mutate the schedule: a second call
				// answers identically from the schedule the first call
				// materialized, without loading it again.
				gotT2, gotExtra2 := sys.shadow(head, tc.now)
				if gotT2 != gotT || gotExtra2 != gotExtra {
					t.Errorf("%s: second sweep diverged: (%v, %d) then (%v, %d)",
						p.name, gotT, gotExtra, gotT2, gotExtra2)
				}
				if sys.relLoads != 1 {
					t.Errorf("%s: %d bulk loads over two sweeps, want 1", p.name, sys.relLoads)
				}
			}

			// Shadow time semantics: strictly after now whenever at least
			// one release was consumed, exactly now otherwise.
			free := tc.total
			for _, r := range tc.running {
				free -= r.cpus
			}
			if free >= tc.headProcs {
				if wantT != tc.now {
					t.Errorf("head fits now but shadow = %v, want now = %v", wantT, tc.now)
				}
			} else if wantT <= tc.now {
				t.Errorf("blocked head got shadow %v, want > now = %v", wantT, tc.now)
			}
		})
	}
}
