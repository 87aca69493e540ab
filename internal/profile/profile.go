// Package profile implements an availability profile: a step function of
// processor usage over future time built from running and planned jobs.
// The conservative and flexible backfilling variants plan every protected
// job against it.
//
// The profile persists across scheduling passes. StartEpoch bulk-loads
// the base skyline from the running jobs' sorted release schedule once;
// Occupy/Vacate then mutate it (a completion is a negative "credit" entry
// cancelling the tail of the planned occupancy), and reservations live in
// a separate journaled layer that TruncateReservations can roll back to
// any pass prefix — the changed-prefix contract the scheduler's
// replanning uses to reuse untouched reservations verbatim. Queries
// overlay the base and reservation tiers; for times at or after the
// latest BeginPass they answer exactly like a profile rebuilt from
// scratch. Both tiers are chunked ordered indexes (skydex.go for the
// base, resvindex.go for reservations): mutations are local chunk edits,
// equal-time credit/occupancy pairs cancel on contact, expired chunks
// fold behind the horizon in O(1), and the EarliestStart sweep skips
// whole chunks per feasibility transition via per-chunk prefix extrema,
// so the live delta count tracks the running and planned jobs, not the
// history of the run. The tests hold the chunk sweep to a linear
// merge-sweep reference and the tiers to sorted-slice models.
package profile

import (
	"math"
	"slices"
)

// Entry is one occupancy interval: cpus processors are busy during
// [Start, End).
type Entry struct {
	Start, End float64
	CPUs       int
}

// Release is one future processor release: CPUs processors become free at
// Time. It is the unit of StartEpoch's bulk initialization.
type Release struct {
	Time float64
	CPUs int
}

// delta is a usage change of d processors at time t.
type delta struct {
	t float64
	d int
}

// Profile is the availability profile of a machine of Total processors.
type Profile struct {
	Total int

	horizon  float64 // latest BeginPass time; deltas at or before it fold
	pendBase int     // usage sum of the deltas folded behind the horizon

	// dex is the base tier: the chunked skyline index Occupy/Vacate edit
	// in place (skydex.go).
	dex skyDex

	// Reservation layer: the chunked ordered index ridx (O(log n + chunk)
	// add/remove, directory-walk prefix sums) and the placement-order
	// journal TruncateReservations rolls back along.
	ridx    resvIndex
	resvLog []Entry

	// truncWork counts journal entries reprocessed by
	// TruncateReservations (suffix removals and prefix rebuilds) — the
	// cost bound the truncate regression tests assert on.
	truncWork int

	scratch []delta // bulk-load buffer reused across epochs and rebuilds

	// Query-entry memo: consecutive EarliestStart queries of a replanning
	// pass share `from` over an unchanged base — only reservations move
	// between them — so the base entry position and usage at `from` are
	// cached under a version counter bumped by every base mutation and
	// horizon fold. Reservation-tier changes (AddReservation,
	// TruncateReservations) never touch it: reservations re-seek on every
	// query.
	ver      int     // base version; bumped on every dex mutation or fold
	memoVer  int     // ver the memo was taken at; -1 when invalid
	memoFrom float64 // NaN when invalid
	memoCi   int     // dex chunk of the first delta with t > memoFrom
	memoK    int     // in-chunk offset of that delta
	memoP    int     // base usage at memoFrom
}

// New returns an empty profile for a machine of total processors. Until
// the first BeginPass it answers queries at any time.
func New(total int) *Profile {
	return &Profile{Total: total, horizon: math.Inf(-1), memoVer: -1, memoFrom: math.NaN()}
}

// StartEpoch resets the profile to a machine of total processors and
// bulk-loads a running-job release schedule: Σ rels.CPUs processors are
// busy from now on, dropping by r.CPUs at each r.Time. rels must be
// sorted ascending by Time with every Time > now; the slice is not
// retained. The horizon moves to now, the reservation layer empties, and
// Occupy/Vacate and AddReservation/TruncateReservations keep the profile
// current from there.
func (p *Profile) StartEpoch(total int, now float64, rels []Release) {
	p.Total = total
	p.horizon = now
	p.pendBase = 0
	p.resvLog = p.resvLog[:0]
	p.ridx.reset()
	ds := p.scratch[:0]
	used := 0
	for _, r := range rels {
		used += r.CPUs
	}
	if used > 0 {
		ds = append(ds, delta{t: now, d: used})
	}
	for _, r := range rels {
		ds = append(ds, delta{t: r.Time, d: -r.CPUs})
	}
	p.dex.load(ds) // merges equal-time releases
	p.scratch = ds[:0]
	p.ver++
}

// BeginPass advances the query horizon to the current pass time. Deltas
// at or before the horizon fold into one usage offset (they are
// indistinguishable to queries at or after it), which is what keeps the
// live delta count proportional to the running and planned jobs.
// now must be nondecreasing across passes.
func (p *Profile) BeginPass(now float64) {
	if now > p.horizon {
		p.horizon = now
	}
}

// Occupy records cpus processors becoming busy during [start, end) — a
// job start. Degenerate intervals are ignored.
func (p *Profile) Occupy(cpus int, start, end float64) {
	if end <= start || cpus <= 0 {
		return
	}
	p.basePush(start, end, cpus)
}

// Vacate cancels a previously recorded occupancy over [start, end): the
// processors of a job that completed (or switched gears) before its
// planned end are handed back by a negative "credit" entry. start must be
// at or before the current pass time and end must be the exact End the
// occupancy was recorded with, so the base step function over the queried
// future matches a fresh rebuild.
func (p *Profile) Vacate(cpus int, start, end float64) {
	if end <= start || cpus <= 0 {
		return
	}
	p.basePush(start, end, -cpus)
}

// basePush records the delta pair of a (possibly negative) base usage
// interval in the chunked skyline index.
func (p *Profile) basePush(start, end float64, d int) {
	p.ver++
	p.dexPush(start, d)
	p.dexPush(end, -d)
}

// dexPush records one base delta in the chunked skyline index. A delta
// at or behind the horizon is indistinguishable to every valid query, so
// it folds straight into the pending-base offset.
func (p *Profile) dexPush(t float64, d int) {
	if t <= p.horizon {
		p.pendBase += d
		return
	}
	p.dex.insert(t, d)
}

// AddReservation appends a planned-job reservation to the journaled
// reservation layer. Degenerate entries occupy nothing but still consume
// a journal position, so journal indexes align with the scheduler's queue
// positions.
func (p *Profile) AddReservation(e Entry) {
	p.resvLog = append(p.resvLog, e)
	if e.End <= e.Start || e.CPUs <= 0 {
		return
	}
	p.ridx.insert(delta{t: e.Start, d: e.CPUs})
	p.ridx.insert(delta{t: e.End, d: -e.CPUs})
}

// Reservations returns the number of journaled reservations.
func (p *Profile) Reservations() int { return len(p.resvLog) }

// TruncateReservations rolls the reservation layer back to its first n
// journal entries: the suffix a replanning pass invalidated is dropped,
// everything before it stays placed verbatim. Truncating to the journal's
// current length (repeated truncate-to-same-prefix included: the journal
// shrank on the first call) is O(1). Otherwise the cost is bounded by
// O(min(suffix, prefix)) chunk operations — dropped entries are removed
// point-wise, unless the kept prefix is the smaller side, in which case
// the index is rebuilt from it (and a full truncate just resets it).
func (p *Profile) TruncateReservations(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(p.resvLog) {
		return
	}
	switch {
	case n == 0:
		p.ridx.reset()
	case len(p.resvLog)-n <= n:
		for _, e := range p.resvLog[n:] {
			if e.End <= e.Start || e.CPUs <= 0 {
				continue
			}
			p.ridx.removeOne(e.Start, e.CPUs)
			p.ridx.removeOne(e.End, -e.CPUs)
		}
		p.truncWork += len(p.resvLog) - n
	default:
		// The kept prefix is the smaller side: rebuild the index from it.
		ds := p.scratch[:0]
		for _, e := range p.resvLog[:n] {
			if e.End <= e.Start || e.CPUs <= 0 {
				continue
			}
			ds = append(ds, delta{t: e.Start, d: e.CPUs}, delta{t: e.End, d: -e.CPUs})
		}
		slices.SortFunc(ds, deltaCmp)
		p.ridx.load(ds)
		p.scratch = ds[:0]
		p.truncWork += n
	}
	p.resvLog = p.resvLog[:n]
}

// BaseDeltas returns the live delta count of the base tier — the
// scheduler's trigger for re-anchoring an epoch when credit history has
// accumulated past a multiple of the running set.
func (p *Profile) BaseDeltas() int { return p.dex.len() }

func deltaCmp(a, b delta) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	}
	return 0
}

// prepare folds expired leading chunks of the skyline index behind the
// horizon, invalidating the query-entry memo when it does.
func (p *Profile) prepare() {
	if f := p.dex.foldTo(p.horizon); f != 0 {
		p.pendBase += f
		p.ver++
	}
}

// UsedAt returns the number of processors busy at time t, which must be
// at or after the latest BeginPass time.
func (p *Profile) UsedAt(t float64) int {
	p.prepare()
	return p.pendBase + p.dex.sumAt(t) + p.ridx.sumAt(t)
}

// FreeAt returns the number of processors free at time t.
func (p *Profile) FreeAt(t float64) int { return p.Total - p.UsedAt(t) }

// CanPlace reports whether cpus processors are continuously available
// during [start, start+dur). A non-positive dur degenerates to the
// instantaneous check: the processors must still be free at the start
// itself, or a zero-length job could be placed on a full machine and
// break the scheduler's allocation invariant.
func (p *Profile) CanPlace(cpus int, start, dur float64) bool {
	if cpus > p.Total {
		return false
	}
	if dur <= 0 {
		return p.UsedAt(start)+cpus <= p.Total
	}
	return p.EarliestStart(cpus, dur, start) == start
}

// ovCursor walks the reservation tier's chunks in time order: the
// overlay the EarliestStart sweep merges over the base skyline. The
// cursor is kept normalized: ci < len(ix.chunks) implies
// ck < len(ix.chunks[ci]); a nil ix is an exhausted overlay.
type ovCursor struct {
	ix     *resvIndex
	ci, ck int
}

// peek returns the next overlay time, +Inf when exhausted.
func (c *ovCursor) peek() float64 {
	if c.ix == nil || c.ci >= len(c.ix.chunks) {
		return math.Inf(1)
	}
	return c.ix.chunks[c.ci][c.ck].t
}

// take consumes every overlay delta at exactly t and returns their sum.
func (c *ovCursor) take(t float64) int {
	d := 0
	for c.peek() == t {
		d += c.ix.chunks[c.ci][c.ck].d
		c.ck++
		if c.ck >= len(c.ix.chunks[c.ci]) {
			c.ci++
			c.ck = 0
		}
	}
	return d
}

// EarliestStart returns the earliest time t >= from at which cpus
// processors are continuously available for dur seconds. It returns +Inf
// when cpus exceeds the machine size. from must be at or after the latest
// BeginPass time.
//
// The base entry position and usage at `from` come from the chunk
// directory (memoized across the queries of a pass); the reservation
// tier is re-sought on every query, since only reservations move between
// them. The sweep then jumps between feasibility transitions.
func (p *Profile) EarliestStart(cpus int, dur, from float64) float64 {
	if cpus > p.Total {
		return math.Inf(1)
	}
	p.prepare()
	var ci, k, P int
	if p.ver == p.memoVer && from == p.memoFrom {
		ci, k, P = p.memoCi, p.memoK, p.memoP
	} else {
		ci, k, P = p.dex.seek(from)
		p.memoVer, p.memoFrom = p.ver, from
		p.memoCi, p.memoK, p.memoP = ci, k, P
	}
	V := p.pendBase
	var ov ovCursor
	if p.ridx.size > 0 {
		rci, rck, rv := p.ridx.seek(from)
		V += rv
		if rci < len(p.ridx.chunks) {
			ov = ovCursor{ix: &p.ridx, ci: rci, ck: rck}
		}
	}
	return p.earliestDex(ci, k, P, V, ov, p.Total-cpus, dur, from)
}

// earliestDex is the chunk-skipping feasibility sweep over the skyline
// index: between overlay (reservation) boundaries the base usage is
// constant-shifted, so the next feasibility transition is found by
// cross, which skips whole chunks whose prefix extrema exclude one.
// Semantics are identical to a linear merge sweep over the materialized
// base and overlay.
func (p *Profile) earliestDex(ci, k, P, V int, ov ovCursor, limit int, dur, from float64) float64 {
	d := &p.dex
	used := P + V
	cand := from
	for {
		tOv := ov.peek()
		// Sweep the base deltas before tOv under constant overlay V: base
		// usage must stay at or below L for a window to be feasible.
		L := limit - V
		for {
			above := used <= limit
			nci, nk, nP, t, ip, ok := d.cross(ci, k, P, L, above, tOv)
			ci, k, P = nci, nk, nP
			if !ok {
				// No more crossings before the boundary; the cursor sits on
				// the first delta at or after it.
				used = P + V
				break
			}
			if above {
				if t-cand >= dur {
					return cand
				}
			} else {
				// Violated segments end where the usage drops back to the
				// limit: the candidate restarts at that boundary.
				cand = t
			}
			used = ip + V
		}
		// The segment ending at the overlay boundary has constant usage.
		if used > limit {
			cand = tOv
		} else if tOv-cand >= dur {
			return cand // also the tOv = +Inf exit: the tail is free
		}
		if math.IsInf(tOv, 1) {
			return cand
		}
		V += ov.take(tOv)
		for ci < len(d.chunks) && d.chunks[ci].ds[k].t == tOv {
			P += d.chunks[ci].ds[k].d
			k++
			if k == len(d.chunks[ci].ds) {
				ci, k = ci+1, 0
			}
		}
		used = P + V
	}
}
