package profile

import (
	"math"
	"slices"
	"sort"
)

// This file holds the references the chunked tiers are checked against:
// a sorted-slice delta tier, the flat tier pair built from it, and the
// linear merge sweep — the EarliestStart the chunk-skipping sweep must
// reproduce exactly.

// sortedDeltas is a delta tier kept as one time-sorted slice, equal
// times in insertion order: O(n) memmove per mutation, trivially correct.
type sortedDeltas []delta

func (s *sortedDeltas) insert(d delta) {
	i := sort.Search(len(*s), func(k int) bool { return (*s)[k].t > d.t })
	*s = slices.Insert(*s, i, d)
}

// removeOne drops one delta equal to (t, d), reporting whether one was
// present.
func (s *sortedDeltas) removeOne(t float64, d int) bool {
	for i := sort.Search(len(*s), func(k int) bool { return (*s)[k].t >= t }); i < len(*s) && (*s)[i].t == t; i++ {
		if (*s)[i].d == d {
			*s = slices.Delete(*s, i, i+1)
			return true
		}
	}
	return false
}

// sumAt returns the sum of the deltas at or before t.
func (s sortedDeltas) sumAt(t float64) int {
	sum := 0
	for _, d := range s {
		if d.t > t {
			break
		}
		sum += d.d
	}
	return sum
}

// linearSweep is the merge-sweep EarliestStart over a time-sorted delta
// list on top of a base usage: walk the boundaries after from, moving the
// candidate past every segment whose usage exceeds the limit and
// returning it once a feasible stretch reaches dur.
func linearSweep(ds []delta, base, total, cpus int, dur, from float64) float64 {
	if cpus > total {
		return math.Inf(1)
	}
	limit := total - cpus
	used, i := base, 0
	for ; i < len(ds) && ds[i].t <= from; i++ {
		used += ds[i].d
	}
	cand := from
	for i < len(ds) {
		t := ds[i].t
		// The segment ending at t has constant usage `used`.
		if used > limit {
			cand = t
		} else if t-cand >= dur {
			return cand
		}
		for ; i < len(ds) && ds[i].t == t; i++ {
			used += ds[i].d
		}
	}
	// Past the last delta the machine is empty, so the candidate holds.
	return cand
}

// linearEarliest materializes p's base and reservation tiers and answers
// EarliestStart with the linear sweep.
func linearEarliest(p *Profile, cpus int, dur, from float64) float64 {
	p.prepare()
	var ds []delta
	p.dex.each(func(d delta) bool { ds = append(ds, d); return true })
	p.ridx.each(func(d delta) bool { ds = append(ds, d); return true })
	slices.SortStableFunc(ds, deltaCmp)
	return linearSweep(ds, p.pendBase, p.Total, cpus, dur, from)
}

// flatTiers is the flat model of the whole profile: the base and the
// reservation tiers as sorted slices, the reservation journal replayed
// on truncation, and queries answered by scan and linear sweep.
type flatTiers struct {
	total      int
	base, resv sortedDeltas
	log        []Entry
}

func (f *flatTiers) occupy(cpus int, start, end float64) {
	if end > start && cpus != 0 {
		f.base.insert(delta{start, cpus})
		f.base.insert(delta{end, -cpus})
	}
}

func (f *flatTiers) vacate(cpus int, start, end float64) { f.occupy(-cpus, start, end) }

func (f *flatTiers) addReservation(e Entry) {
	f.log = append(f.log, e)
	if e.End > e.Start && e.CPUs > 0 {
		f.resv.insert(delta{e.Start, e.CPUs})
		f.resv.insert(delta{e.End, -e.CPUs})
	}
}

func (f *flatTiers) truncate(n int) {
	if n >= len(f.log) {
		return
	}
	log := f.log[:n]
	f.log, f.resv = nil, nil
	for _, e := range log {
		f.addReservation(e)
	}
}

func (f *flatTiers) usedAt(t float64) int { return f.base.sumAt(t) + f.resv.sumAt(t) }

func (f *flatTiers) earliest(cpus int, dur, from float64) float64 {
	ds := append(slices.Clone(f.base), f.resv...)
	slices.SortStableFunc(ds, deltaCmp)
	return linearSweep(ds, 0, f.total, cpus, dur, from)
}

// naiveEarliest answers EarliestStart from raw occupancy entries.
func naiveEarliest(entries []Entry, total, cpus int, dur, from float64) float64 {
	var ds []delta
	for _, e := range entries {
		if e.End > e.Start && e.CPUs > 0 {
			ds = append(ds, delta{e.Start, e.CPUs}, delta{e.End, -e.CPUs})
		}
	}
	slices.SortStableFunc(ds, deltaCmp)
	return linearSweep(ds, 0, total, cpus, dur, from)
}

// each calls fn on every base delta in time order until fn returns false.
func (d *skyDex) each(fn func(delta) bool) {
	for i := range d.chunks {
		for _, dd := range d.chunks[i].ds {
			if !fn(dd) {
				return
			}
		}
	}
}

// each calls fn on every reservation delta in time order until fn
// returns false.
func (ix *resvIndex) each(fn func(delta) bool) {
	for _, ch := range ix.chunks {
		for _, d := range ch {
			if !fn(d) {
				return
			}
		}
	}
}
