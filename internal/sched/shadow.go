package sched

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/workload"
)

// release is one running job's planned processor release, the unit of the
// shadow-time sweep and of the availability-profile bulk load.
type release struct {
	t    float64
	cpus int
	id   int
}

// collectReleases returns the live run list's planned releases sorted by
// (raw planned end, job ID) in a fresh slice: the one-time bulk load that
// materializes the release schedule.
func (s *System) collectReleases() []release {
	rels := make([]release, 0, s.runningCount())
	for _, rs := range s.runList {
		if rs == nil {
			continue // tombstoned completion
		}
		rels = append(rels, release{t: rs.PlannedEnd, cpus: rs.Job.Procs, id: rs.Job.ID})
	}
	slices.SortFunc(rels, func(a, b release) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	s.relLive = true
	s.relLoads++
	return rels
}

// releaseIndex returns the chunked ordered release index, bulk-loading it
// from the run list on first use. The load copies the sorted scratch into
// chunks, so the scratch is dropped with the call.
func (s *System) releaseIndex() *relIndex {
	if !s.relLive {
		s.relIdx.load(s.collectReleases())
	}
	return &s.relIdx
}

// releaseCount returns the number of live planned releases.
func (s *System) releaseCount() int { return s.releaseIndex().len() }

// minRelease returns the earliest (unclamped) planned release time.
func (s *System) minRelease() (float64, bool) {
	r, ok := s.releaseIndex().min()
	return r.t, ok
}

// relAdd registers a newly started (or re-geared) job's planned release
// with an ordered insert. Before the schedule is materialized it is a
// no-op: the first consumer's bulk load reads the job from the run list.
func (s *System) relAdd(rs *RunState) {
	if !s.relLive {
		return
	}
	s.relIdx.insert(release{t: rs.PlannedEnd, cpus: rs.Job.Procs, id: rs.Job.ID})
}

// relRemove drops a finished (or about-to-be-re-geared) job's planned
// release, a no-op before the schedule is materialized. rs.PlannedEnd
// must still hold the value relAdd (or the bulk load) registered; a
// release the schedule no longer knows is a scheduler invariant violation
// reported as an error, which callers surface through Simulate's error
// path via fail.
func (s *System) relRemove(rs *RunState) error {
	if !s.relLive {
		return nil
	}
	if !s.relIdx.remove(rs.PlannedEnd, rs.Job.ID) {
		return lostReleaseError(rs.Job.ID, rs.PlannedEnd)
	}
	return nil
}

// lostReleaseError reports a release schedule that lost track of a
// running job — a broken scheduler invariant (or a caller mutating
// PlannedEnd behind the schedule's back).
func lostReleaseError(id int, t float64) error {
	return fmt.Errorf("sched: release schedule lost job %d (planned end %v)", id, t)
}

// clampRelease keeps a release time strictly after now: a job at its kill
// limit still holds its processors until its completion event fires
// (possibly later at this same timestamp), so capacity planning must not
// hand its processors out at `now` itself.
func clampRelease(t, now float64) float64 {
	if t <= now {
		return math.Nextafter(now, math.Inf(1))
	}
	return t
}

// shadow computes the EASY reservation for a head job that cannot start
// now: the shadow time (earliest time enough processors are free according
// to the running jobs' kill limits) and the number of extra processors
// that remain free at the shadow time after the head starts. A backfilled
// job may run past the shadow time only on those extra processors.
//
// Because only running jobs hold processors (EASY keeps a single
// reservation), availability is non-decreasing in time and the sweep over
// planned completions is exact. One in-order walk of the release index
// runs two phases: accumulate releases until the head fits, then absorb
// the equal-time group at the shadow instant — the head starts once they
// have all completed, so their processors count toward the extra pool.
func (s *System) shadow(head *workload.Job, now float64) (float64, int) {
	avail := s.cl.FreeCount()
	shadowT := now
	grouping := avail >= head.Procs
	for _, ch := range s.releaseIndex().chunks {
		for _, r := range ch {
			if grouping {
				if clampRelease(r.t, now) != shadowT {
					return shadowT, avail - head.Procs
				}
				avail += r.cpus
				continue
			}
			avail += r.cpus
			shadowT = clampRelease(r.t, now)
			grouping = avail >= head.Procs
		}
	}
	return shadowT, avail - head.Procs
}
