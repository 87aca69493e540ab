package sched

import (
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// Regression for the zero-ReqTime backfill crash: real SWF logs contain
// jobs with a zero requested time, whose planned occupancy (kill limit)
// is zero seconds. profile.CanPlace used to report any non-positive
// duration as placeable without looking at instantaneous availability, so
// a replanning pass would backfill such a job onto a fully busy machine
// and start() would panic on the allocation invariant. The job must
// instead stay queued until processors are actually free.
func TestZeroReqTimeJobAtFullMachineStaysQueued(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		gears := dvfs.PaperGearSet()
		sys, err := New(Config{
			CPUs:      4,
			Gears:     gears,
			TimeModel: dvfs.NewTimeModel(0.5, gears),
			Policy:    topPolicy(),
			Variant:   EASY,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Fill the machine, then queue two reserved jobs ahead of the
		// zero-ReqTime job so it lands in the backfill-candidate
		// suffix of the replanning pass.
		filler := &workload.Job{ID: 1, Procs: 4, Submit: 0, Runtime: 100, ReqTime: 100, Beta: -1}
		sys.start(filler, gears.Top(), 0)
		blockedA := &workload.Job{ID: 2, Procs: 4, Submit: 0, Runtime: 50, ReqTime: 60, Beta: -1}
		blockedB := &workload.Job{ID: 3, Procs: 4, Submit: 0, Runtime: 50, ReqTime: 60, Beta: -1}
		zero := &workload.Job{ID: 4, Procs: 1, Submit: 0, Runtime: 0, ReqTime: 0, Beta: -1}
		sys.queue = []*workload.Job{blockedA, blockedB, zero}

		sys.profilePass(0, 2) // used to panic: allocation invariant broken

		found := false
		for _, j := range sys.queue {
			if j == zero {
				found = true
			}
		}
		if !found {
			t.Fatal("zero-ReqTime job left the queue on a full machine")
		}
		if got := sys.cl.FreeCount(); got != 0 {
			t.Fatalf("machine should stay full, %d processors free", got)
		}
	})
}

// A legitimately backfilled zero-ReqTime job must still occupy its
// processors within the pass that starts it: its planned occupancy is
// zero seconds long, but the profile records a one-ulp interval at now,
// so a later placement in the same pass cannot be handed the same
// processors (which used to panic the allocation invariant one job
// further down the queue).
func TestZeroReqTimeStartOccupiesWithinPass(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		gears := dvfs.PaperGearSet()
		sys, err := New(Config{
			CPUs:      4,
			Gears:     gears,
			TimeModel: dvfs.NewTimeModel(0.5, gears),
			Policy:    topPolicy(),
			Variant:   EASY,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Three of four processors busy; the head needs all four, so
		// both 1-proc jobs behind it are backfill candidates. The
		// zero-ReqTime job takes the last free processor — the normal
		// job after it must see a full machine and stay queued.
		filler := &workload.Job{ID: 1, Procs: 3, Submit: 0, Runtime: 100, ReqTime: 100, Beta: -1}
		sys.start(filler, gears.Top(), 0)
		blocked := &workload.Job{ID: 2, Procs: 4, Submit: 0, Runtime: 50, ReqTime: 60, Beta: -1}
		zero := &workload.Job{ID: 3, Procs: 1, Submit: 0, Runtime: 0, ReqTime: 0, Beta: -1}
		normal := &workload.Job{ID: 4, Procs: 1, Submit: 0, Runtime: 30, ReqTime: 40, Beta: -1}
		sys.queue = []*workload.Job{blocked, zero, normal}

		sys.profilePass(0, 1) // used to panic placing `normal`

		for _, j := range sys.queue {
			if j == zero {
				t.Fatal("zero-ReqTime job stayed queued with a processor free")
			}
		}
		found := false
		for _, j := range sys.queue {
			if j == normal {
				found = true
			}
		}
		if !found {
			t.Fatal("normal job started on a machine the zero-ReqTime job filled")
		}
	})
}

// The flip side: once processors are free, a zero-ReqTime job must place
// immediately (the degenerate window still requires — and only requires —
// instantaneous availability).
func TestZeroReqTimeJobStartsOnFreeMachine(t *testing.T) {
	gears := dvfs.PaperGearSet()
	sys, err := New(Config{
		CPUs:      4,
		Gears:     gears,
		TimeModel: dvfs.NewTimeModel(0.5, gears),
		Policy:    topPolicy(),
		Variant:   EASY,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three of four processors busy: the 1-proc zero-ReqTime job fits.
	filler := &workload.Job{ID: 1, Procs: 3, Submit: 0, Runtime: 100, ReqTime: 100, Beta: -1}
	sys.start(filler, gears.Top(), 0)
	blocked := &workload.Job{ID: 2, Procs: 4, Submit: 0, Runtime: 50, ReqTime: 60, Beta: -1}
	zero := &workload.Job{ID: 3, Procs: 1, Submit: 0, Runtime: 0, ReqTime: 0, Beta: -1}
	sys.queue = []*workload.Job{blocked, zero}
	sys.profilePass(0, 1)
	for _, j := range sys.queue {
		if j == zero {
			t.Fatal("zero-ReqTime job stayed queued with a processor free")
		}
	}
}
