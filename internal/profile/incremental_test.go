package profile

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// incJob is one simulated running job for the differential driver: cpus
// busy until end (the End its occupancy was recorded with).
type incJob struct {
	cpus int
	end  float64
}

// TestQuickIncrementalMatchesFreshOracle is the differential regression
// for the persistent profile: it drives thousands of mixed passes —
// completions (Vacate credits), starts (Occupy), reservation placements
// and changed-prefix truncations — through one incremental profile and,
// every pass, asserts that UsedAt and EarliestStart answer exactly like a
// fresh scan of the live occupancies and the reservation journal. Every
// EarliestStart is also evaluated by the linear merge sweep over the
// materialized tiers, which the chunk-skipping sweep must match to the
// bit. Integer times force equal-timestamp collisions; the fold, split
// and truncate paths all trigger at these sizes.
func TestQuickIncrementalMatchesFreshOracle(t *testing.T) {
	passes := 1500
	if testing.Short() {
		passes = 200
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 8 + r.Intn(56)
		now := float64(r.Intn(10))

		var running []incJob
		var resvs []Entry // mirrors the profile's reservation journal
		p := New(total)

		startEpoch := func() {
			rels := make([]Release, len(running))
			for i, j := range running {
				rels[i] = Release{Time: j.end, CPUs: j.cpus}
			}
			sortReleases(rels)
			p.StartEpoch(total, now, rels)
			resvs = resvs[:0]
		}
		// Seed the epoch with a few running jobs.
		for i := 0; i < r.Intn(8); i++ {
			running = append(running, incJob{cpus: 1 + r.Intn(total/2), end: now + float64(1+r.Intn(200))})
		}
		startEpoch()

		check := func() bool {
			// Fresh oracle: live occupancies clipped to [now, ∞) plus the
			// journaled reservations, as raw entries.
			var live []Entry
			for _, j := range running {
				live = append(live, Entry{Start: now, End: j.end, CPUs: j.cpus})
			}
			live = append(live, resvs...)
			probes := []float64{now, now + 0.5, now + float64(r.Intn(300))}
			for _, j := range running {
				probes = append(probes, j.end)
			}
			for _, e := range resvs {
				if e.Start >= now {
					probes = append(probes, e.Start)
				}
				if e.End >= now {
					probes = append(probes, e.End)
				}
			}
			for _, q := range probes {
				if q < now {
					continue
				}
				if got, want := p.UsedAt(q), naiveUsedAt(live, q); got != want {
					t.Logf("seed %d: UsedAt(%v) = %d, oracle %d", seed, q, got, want)
					return false
				}
			}
			for trial := 0; trial < 4; trial++ {
				cpus := 1 + r.Intn(total)
				dur := float64(r.Intn(120))
				from := now
				if trial%2 == 1 {
					from = now + float64(r.Intn(150))
				}
				want := naiveEarliest(live, total, cpus, dur, from)
				got := p.EarliestStart(cpus, dur, from)
				lin := linearEarliest(p, cpus, dur, from)
				if got != want || lin != want {
					t.Logf("seed %d: EarliestStart(%d, %v, %v) indexed=%v linear=%v oracle=%v (dex=%d ridx=%d)",
						seed, cpus, dur, from, got, lin, want, p.dex.len(), p.ridx.len())
					return false
				}
				wantPlace := naiveUsedAt(live, from)+cpus <= total
				if dur > 0 {
					wantPlace = want == from
				}
				if p.CanPlace(cpus, from, dur) != wantPlace {
					t.Logf("seed %d: CanPlace(%d, %v, %v) diverged", seed, cpus, from, dur)
					return false
				}
			}
			return true
		}

		for pass := 0; pass < passes; pass++ {
			now += float64(r.Intn(4))
			if r.Intn(40) == 0 {
				// Long idle gap: the whole base expires behind the horizon
				// (the regression that caught the flush fold aliasing the
				// merge buffer needed an emptied main tier).
				now += 500
			}
			p.BeginPass(now)
			switch r.Intn(10) {
			case 0, 1, 2: // completion: credit the planned tail
				if len(running) > 0 {
					i := r.Intn(len(running))
					j := running[i]
					p.Vacate(j.cpus, now, j.end)
					running = append(running[:i], running[i+1:]...)
				}
			case 3, 4, 5, 6: // start: new occupancy from now
				j := incJob{cpus: 1 + r.Intn(total/2), end: now + float64(1+r.Intn(200))}
				p.Occupy(j.cpus, now, j.end)
				running = append(running, j)
			case 7, 8: // reservation placed at (or past) its earliest start
				cpus := 1 + r.Intn(total)
				dur := float64(r.Intn(90))
				st := p.EarliestStart(cpus, dur, now)
				e := Entry{Start: st, End: st + dur, CPUs: cpus}
				p.AddReservation(e)
				resvs = append(resvs, e)
			default: // replan: drop a suffix of the reservations
				if n := len(resvs); n > 0 {
					keep := r.Intn(n + 1)
					p.TruncateReservations(keep)
					resvs = resvs[:keep]
				}
			}
			if p.Reservations() != len(resvs) {
				t.Logf("seed %d: journal %d, driver %d", seed, p.Reservations(), len(resvs))
				return false
			}
			if pass%7 == 0 || pass == passes-1 {
				if !check() {
					return false
				}
			}
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestQuickChunkSweepMatchesLinearSweep pins the chunk-skipping sweep to
// the linear reference on epochs large enough that the skyline index
// spans many chunks, so whole-chunk skips, in-chunk crossings and
// overlay boundaries all land, with reservations in play.
func TestQuickChunkSweepMatchesLinearSweep(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 256 + r.Intn(1024)
		now := float64(r.Intn(5))
		n := 200 + r.Intn(400)
		rels := make([]Release, n)
		for i := range rels {
			rels[i] = Release{Time: now + float64(1+r.Intn(2000)), CPUs: 1 + r.Intn(8)}
		}
		sortReleases(rels)
		p := New(total)
		p.StartEpoch(total, now, rels)
		if len(p.dex.chunks) < 2 {
			t.Log("large epoch fits one chunk")
			return false
		}
		for step := 0; step < 60; step++ {
			now += float64(r.Intn(3))
			p.BeginPass(now)
			switch r.Intn(3) {
			case 0:
				p.Occupy(1+r.Intn(32), now, now+float64(1+r.Intn(800)))
			case 1:
				st := now + float64(r.Intn(500))
				p.AddReservation(Entry{Start: st, End: st + float64(1+r.Intn(300)), CPUs: 1 + r.Intn(64)})
			default:
			}
			cpus := 1 + r.Intn(total)
			dur := float64(r.Intn(600))
			from := now + float64(r.Intn(100))
			got := p.EarliestStart(cpus, dur, from)
			lin := linearEarliest(p, cpus, dur, from)
			if got != lin {
				t.Logf("seed %d step %d: EarliestStart(%d, %v, %v) chunked=%v linear=%v",
					seed, step, cpus, dur, from, got, lin)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The persistent profile's live delta count must track the running and
// planned set, not the history: after thousands of start/complete cycles
// at a bounded running-set size, the base tier stays bounded too. The
// chunked skyline index cancels credit pairs on contact, so it is held
// to one delta per distinct live end, plus slack for same-pass
// stragglers ahead of a fold.
func TestIncrementalBaseStaysBounded(t *testing.T) {
	t.Run("indexed", func(t *testing.T) {
		const total = 1 << 12
		r := rand.New(rand.NewSource(5))
		p := New(total)
		now := 0.0
		p.StartEpoch(total, now, nil)
		var running []incJob
		for pass := 0; pass < 20000; pass++ {
			now += 1
			p.BeginPass(now)
			if len(running) < 64 && r.Intn(3) > 0 {
				j := incJob{cpus: 1 + r.Intn(32), end: now + float64(1+r.Intn(400))}
				p.Occupy(j.cpus, now, j.end)
				running = append(running, j)
			} else if len(running) > 0 {
				i := r.Intn(len(running))
				j := running[i]
				p.Vacate(j.cpus, now, j.end)
				running = append(running[:i], running[i+1:]...)
			}
			p.UsedAt(now) // exercise the horizon fold
		}
		// Planned ends reach at most 400 ticks ahead and the running set
		// is capped at 64 jobs, so the live footprint must stay in the
		// hundreds even though 20k mutations flowed through.
		if n := p.BaseDeltas(); n > 64+16 {
			t.Fatalf("base deltas grew to %d after 20k bounded-churn passes", n)
		}
	})
}
