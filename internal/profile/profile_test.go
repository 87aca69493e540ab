package profile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUsedAtAndFreeAt(t *testing.T) {
	p := New(10)
	occupy(p, Entry{Start: 0, End: 10, CPUs: 4})
	occupy(p, Entry{Start: 5, End: 15, CPUs: 3})
	cases := []struct {
		t    float64
		used int
	}{
		{-1, 0}, {0, 4}, {4.9, 4}, {5, 7}, {9.9, 7}, {10, 3}, {14.9, 3}, {15, 0},
	}
	for _, c := range cases {
		if got := p.UsedAt(c.t); got != c.used {
			t.Errorf("UsedAt(%v) = %d, want %d", c.t, got, c.used)
		}
		if got := p.FreeAt(c.t); got != 10-c.used {
			t.Errorf("FreeAt(%v) = %d, want %d", c.t, got, 10-c.used)
		}
	}
}

// occupy records e in the base skyline of a fresh (never passed) profile.
func occupy(p *Profile, e Entry) { p.Occupy(e.CPUs, e.Start, e.End) }

func TestOccupyIgnoresDegenerate(t *testing.T) {
	p := New(4)
	occupy(p, Entry{Start: 5, End: 5, CPUs: 2})
	occupy(p, Entry{Start: 5, End: 4, CPUs: 2})
	occupy(p, Entry{Start: 0, End: 10, CPUs: 0})
	p.Vacate(2, 5, 5)
	if n := p.BaseDeltas(); n != 0 {
		t.Errorf("degenerate entries stored: %d deltas", n)
	}
}

func TestCanPlace(t *testing.T) {
	p := New(10)
	occupy(p, Entry{Start: 10, End: 20, CPUs: 8})
	if !p.CanPlace(2, 10, 10) {
		t.Error("2 cpus alongside 8 should fit")
	}
	if p.CanPlace(3, 10, 10) {
		t.Error("3 cpus alongside 8 should not fit")
	}
	if !p.CanPlace(10, 0, 10) {
		t.Error("full machine before the entry should fit")
	}
	if p.CanPlace(10, 5, 6) {
		t.Error("window overlapping the entry should not fit the full machine")
	}
	if p.CanPlace(11, 0, 1) {
		t.Error("more cpus than the machine accepted")
	}
	if !p.CanPlace(10, 20, 1000) {
		t.Error("full machine after all entries should fit")
	}
}

// Regression: a zero-duration request (a zero-ReqTime job's kill limit)
// must still check instantaneous availability — it used to report true on
// a fully busy machine, letting the scheduler backfill a job it could not
// allocate.
func TestCanPlaceZeroDurationChecksInstantaneousFree(t *testing.T) {
	p := New(8)
	occupy(p, Entry{Start: 0, End: 100, CPUs: 8})
	if p.CanPlace(1, 50, 0) {
		t.Error("zero-duration placement accepted on a full machine")
	}
	if !p.CanPlace(1, 100, 0) {
		t.Error("zero-duration placement rejected after the release")
	}
	if !p.CanPlace(8, 100, 0) {
		t.Error("zero-duration full-machine placement rejected on an idle machine")
	}
	if p.CanPlace(9, 100, 0) {
		t.Error("oversized zero-duration placement accepted")
	}
}

func TestEarliestStartBasic(t *testing.T) {
	p := New(10)
	occupy(p, Entry{Start: 0, End: 100, CPUs: 8})
	// 2 cpus fit immediately; 4 must wait for the release at t=100.
	if got := p.EarliestStart(2, 50, 0); got != 0 {
		t.Errorf("EarliestStart(2) = %v, want 0", got)
	}
	if got := p.EarliestStart(4, 50, 0); got != 100 {
		t.Errorf("EarliestStart(4) = %v, want 100", got)
	}
}

func TestEarliestStartRespectsFrom(t *testing.T) {
	p := New(4)
	if got := p.EarliestStart(2, 10, 42); got != 42 {
		t.Errorf("EarliestStart from=42 on empty profile = %v, want 42", got)
	}
}

func TestEarliestStartHole(t *testing.T) {
	// A hole between two occupancy intervals: 4 cpus free during [10, 20).
	p := New(4)
	occupy(p, Entry{Start: 0, End: 10, CPUs: 4})
	occupy(p, Entry{Start: 20, End: 30, CPUs: 4})
	if got := p.EarliestStart(4, 10, 0); got != 10 {
		t.Errorf("fits in hole: EarliestStart = %v, want 10", got)
	}
	// Too long for the hole: must wait until the second interval ends.
	if got := p.EarliestStart(4, 11, 0); got != 30 {
		t.Errorf("overflows hole: EarliestStart = %v, want 30", got)
	}
	// A narrower job shares the hole and the second interval... but the
	// second interval uses the whole machine, so it still overflows.
	if got := p.EarliestStart(1, 11, 0); got != 30 {
		t.Errorf("narrow overflow: EarliestStart = %v, want 30", got)
	}
}

func TestEarliestStartOversized(t *testing.T) {
	p := New(4)
	if !math.IsInf(p.EarliestStart(5, 1, 0), 1) {
		t.Error("oversized request should return +Inf")
	}
}

// refCanPlace is the independent reference: usage checked point-wise at
// the window start and every boundary inside it (the pre-optimization
// algorithm).
func refCanPlace(p *Profile, entries []Entry, cpus int, start, dur float64) bool {
	if cpus > p.Total {
		return false
	}
	if dur <= 0 {
		// Zero-length placements still need the processors free at the
		// start instant (the scheduler allocates them there).
		return naiveUsedAt(entries, start)+cpus <= p.Total
	}
	end := start + dur
	if p.UsedAt(start)+cpus > p.Total {
		return false
	}
	for _, e := range entries {
		for _, b := range [2]float64{e.Start, e.End} {
			if b > start && b < end && p.UsedAt(b)+cpus > p.Total {
				return false
			}
		}
	}
	return true
}

// Property: the sweep-based CanPlace agrees with the point-wise reference.
func TestQuickCanPlaceMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 2 + r.Intn(16)
		p := New(total)
		var entries []Entry
		for i := 0; i < r.Intn(10); i++ {
			s := float64(r.Intn(50))
			e := Entry{Start: s, End: s + float64(1+r.Intn(30)), CPUs: 1 + r.Intn(total)}
			occupy(p, e)
			entries = append(entries, e)
		}
		for trial := 0; trial < 20; trial++ {
			cpus := 1 + r.Intn(total+1)
			start := float64(r.Intn(60))
			dur := float64(r.Intn(40))
			if p.CanPlace(cpus, start, dur) != refCanPlace(p, entries, cpus, start, dur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the returned start is feasible, and no earlier boundary (or
// `from` itself) admits the window.
func TestQuickEarliestStartOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 2 + r.Intn(16)
		p := New(total)
		n := r.Intn(8)
		var bounds []float64
		for i := 0; i < n; i++ {
			s := float64(r.Intn(50))
			d := float64(1 + r.Intn(30))
			c := 1 + r.Intn(total)
			occupy(p, Entry{Start: s, End: s + d, CPUs: c})
			bounds = append(bounds, s, s+d)
		}
		cpus := 1 + r.Intn(total)
		dur := float64(1 + r.Intn(40))
		from := float64(r.Intn(30))
		got := p.EarliestStart(cpus, dur, from)
		if math.IsInf(got, 1) {
			return false // cpus <= total, so a start must exist
		}
		if got < from {
			return false
		}
		if !p.CanPlace(cpus, got, dur) {
			return false
		}
		// No earlier candidate works.
		cands := append([]float64{from}, bounds...)
		for _, c := range cands {
			if c >= from && c < got && p.CanPlace(cpus, c, dur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// naiveUsedAt is the reference: a linear scan over the raw entries. The
// indexed implementation must agree everywhere.
func naiveUsedAt(entries []Entry, t float64) int {
	used := 0
	for _, e := range entries {
		if e.Start <= t && t < e.End {
			used += e.CPUs
		}
	}
	return used
}

// Regression for the chunk-indexed UsedAt: agreement with the naive scan
// on randomized profiles, probed at entry boundaries (where the
// half-open [Start, End) semantics bite) and at random times, with
// queries interleaved between mutations so chunk splits and equal-time
// coalescing are exercised.
func TestQuickUsedAtMatchesNaiveScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 2 + r.Intn(64)
		p := New(total)
		var entries []Entry
		probe := func() bool {
			ts := []float64{-1, 0, float64(r.Intn(100)), r.Float64() * 100}
			for _, e := range entries {
				ts = append(ts, e.Start, e.End, math.Nextafter(e.End, 0))
			}
			for _, q := range ts {
				if p.UsedAt(q) != naiveUsedAt(entries, q) {
					return false
				}
				if p.FreeAt(q) != total-naiveUsedAt(entries, q) {
					return false
				}
			}
			return true
		}
		for i := 0; i < 40; i++ {
			s := float64(r.Intn(80))
			e := Entry{Start: s, End: s + float64(1+r.Intn(40)), CPUs: 1 + r.Intn(total)}
			occupy(p, e)
			entries = append(entries, e)
			if r.Intn(4) == 0 && !probe() {
				return false
			}
		}
		return probe()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// StartEpoch's bulk load must be observationally identical to occupying
// one [now, Time) entry per release, with reservations on top too.
func TestStartEpochMatchesOccupies(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 4 + r.Intn(60)
		now := r.Float64() * 10
		n := r.Intn(12)
		rels := make([]Release, n)
		for i := range rels {
			rels[i] = Release{Time: now + 0.5 + r.Float64()*50, CPUs: 1 + r.Intn(8)}
		}
		sortReleases(rels)
		bulk := New(total)
		bulk.StartEpoch(total, now, rels)
		ref := New(total)
		for _, rel := range rels {
			ref.Occupy(rel.CPUs, now, rel.Time)
		}
		for trial := 0; trial < 30; trial++ {
			q := now + r.Float64()*60
			if bulk.UsedAt(q) != ref.UsedAt(q) {
				return false
			}
			cpus := 1 + r.Intn(total)
			dur := r.Float64() * 30
			if bulk.EarliestStart(cpus, dur, q) != ref.EarliestStart(cpus, dur, q) {
				return false
			}
		}
		for i := 0; i < 5; i++ {
			s := now + r.Float64()*40
			e := Entry{Start: s, End: s + 1 + r.Float64()*20, CPUs: 1 + r.Intn(8)}
			bulk.AddReservation(e)
			occupy(ref, e)
			q := now + r.Float64()*60
			if bulk.UsedAt(q) != ref.UsedAt(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sortReleases(rels []Release) {
	for i := 1; i < len(rels); i++ {
		for j := i; j > 0 && rels[j].Time < rels[j-1].Time; j-- {
			rels[j], rels[j-1] = rels[j-1], rels[j]
		}
	}
}

// Property: CanPlace is monotone in cpus — if n cpus fit, n-1 fit too.
func TestQuickCanPlaceMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		total := 2 + r.Intn(12)
		p := New(total)
		for i := 0; i < r.Intn(6); i++ {
			s := float64(r.Intn(40))
			occupy(p, Entry{Start: s, End: s + float64(1+r.Intn(20)), CPUs: 1 + r.Intn(total)})
		}
		start := float64(r.Intn(40))
		dur := float64(1 + r.Intn(20))
		for n := total; n > 1; n-- {
			if p.CanPlace(n, start, dur) && !p.CanPlace(n-1, start, dur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
