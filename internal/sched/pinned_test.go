package sched

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/workload"
)

// scheduleDigest folds a replay's per-job outcome — start, end, the gear
// at start and at completion, and every phase — into one SHA-256 hex
// digest. Floats are written in exact hexadecimal, so any bit of drift
// changes the digest.
type scheduleDigest struct {
	lines map[int]string
	gears map[int]dvfs.Gear
	start map[int]float64
}

func newScheduleDigest() *scheduleDigest {
	return &scheduleDigest{lines: map[int]string{}, gears: map[int]dvfs.Gear{}, start: map[int]float64{}}
}

func (d *scheduleDigest) JobStarted(rs *RunState, now float64) {
	d.start[rs.Job.ID] = now
	d.gears[rs.Job.ID] = rs.Gear
}

func (d *scheduleDigest) JobFinished(rs *RunState, now float64) {
	id := rs.Job.ID
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s %s %v %v %v", id, hexFloat(d.start[id]), hexFloat(now), d.gears[id], rs.Gear, rs.Reduced)
	for _, ph := range rs.Phases {
		fmt.Fprintf(&b, " %v:%s", ph.Gear, hexFloat(ph.Dur))
	}
	d.lines[id] = b.String()
}

func (d *scheduleDigest) sum() string {
	ids := make([]int, 0, len(d.lines))
	for id := range d.lines {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintln(h, d.lines[id])
	}
	return fmt.Sprintf("%d:%x", len(ids), h.Sum(nil))
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// readDigests loads a "<name> <digest>" pin file from testdata.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed pin %q", path, line)
		}
		pins[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// TestBoostingSchedulesPinned pins the schedules of a policy that
// re-gears running jobs from ControlPass through a bound System — the
// path the test-only oracle does not model (it has no controller seam).
// The digests in testdata/boosting.digests were recorded before the
// reference implementations left the production packages; the re-gear
// path must keep every start, end, gear and phase bit-identical, on the
// same random and phase fixtures the oracle suite replays.
func TestBoostingSchedulesPinned(t *testing.T) {
	pins := readDigests(t, "testdata/boosting.digests")
	gears := dvfs.PaperGearSet()
	for _, fx := range []struct {
		name    string
		variant Variant
		order   Order
		resv    int
		phases  bool
	}{
		{"easy", EASY, FCFSOrder, 0, false},
		{"fcfs", FCFS, FCFSOrder, 0, false},
		{"conservative", Conservative, FCFSOrder, 0, false},
		{"easy-sjf", EASY, SJFOrder, 0, false},
		{"flexible-4", EASY, FCFSOrder, 4, false},
		{"conservative-sjf", Conservative, SJFOrder, 0, false},
		{"conservative-phases", Conservative, FCFSOrder, 0, true},
		{"flexible-4-phases", EASY, FCFSOrder, 4, true},
	} {
		t.Run(fx.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				d := newScheduleDigest()
				sys, err := New(Config{
					CPUs: 16, Gears: gears, TimeModel: dvfs.NewTimeModel(0.5, gears),
					Policy: boostingPolicy{gears: gears}, Variant: fx.variant, Order: fx.order,
					Reservations: fx.resv, Recorder: MultiRecorder{newAudit(t, 16), d},
				})
				if err != nil {
					t.Fatal(err)
				}
				var tr *workload.Trace
				if fx.phases {
					tr = phasesTrace(seed, 16)
				} else {
					tr = randomTrace(seed, 16, 250)
				}
				if err := sys.Simulate(tr); err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%d", fx.name, seed)
				if got := d.sum(); got != pins[key] {
					t.Errorf("%s: schedule digest %s, pinned %s", key, got, pins[key])
				}
			}
		})
	}
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
