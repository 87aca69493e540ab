package sched_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The reference scheduler below is a direct, deliberately naive reading
// of the paper's scheduling model, kept in test code as the executable
// specification the production System is checked against. It shares no
// data structure with the production path: the running set, the queue and
// every availability question live in plain slices, rescanned from
// scratch for every question (quadratic work per pass), with no release
// index, no availability profile, no event heap and no pooling.
//
// The model:
//   - One scheduling pass runs after every event. Events are job
//     completions and arrivals; at equal times completions come first
//     (freed processors are visible to same-instant arrivals), ties among
//     completions go by start order and arrivals by stable submit order.
//   - A running job holds its processors until its completion event: for
//     planning, a kill limit at or before the pass time is treated as one
//     ulp after it.
//   - FCFS starts queue heads while they fit. EASY then gives the blocked
//     head a reservation at the shadow time — the earliest kill-limit
//     release after which it fits — and backfills a later job when it
//     fits the free processors now and either ends (by its kill limit)
//     before the shadow time or fits into the processors the head leaves
//     over there. EASY with K > 1 reservations and conservative
//     backfilling plan the queue in order against the running jobs' kill
//     limits: the first K (conservative: all) queued jobs start now or get
//     a reservation at their earliest start that delays no earlier
//     reservation; the rest may only start now, and only if that disturbs
//     no reservation.
//   - The gear policy is asked the paper's questions. A job about to be
//     reserved (or started as a head) gets ReserveGear at the earliest
//     start it would have at the top gear, and its slot is then placed
//     with the chosen gear's dilated kill limit; a backfill candidate gets
//     BackfillGear with the feasibility test of its slot, and only a gear
//     that test accepts is used. wqOthers counts the other waiting jobs.
//   - SJF order sorts the queue by requested time, ties by job ID, before
//     every pass.

// refOutcome is one job's schedule under the reference.
type refOutcome struct {
	start, end float64
	gear       dvfs.Gear
}

// refRunning is one running job of the reference.
type refRunning struct {
	job                  *workload.Job
	gear                 dvfs.Gear
	start, planned, ends float64
}

// refSpan is cpus processors busy during [start, end).
type refSpan struct {
	start, end float64
	cpus       int
}

// refScheduler replays a trace under the reference model.
type refScheduler struct {
	cpus    int
	gears   dvfs.GearSet
	tm      dvfs.TimeModel
	policy  sched.GearPolicy
	variant sched.Variant
	order   sched.Order
	resv    int

	queue   []*workload.Job
	running []refRunning // start order
	out     map[int]refOutcome
}

// refSchedule returns every job's start, end and gear under the
// reference model.
func refSchedule(cfg sched.Config, jobs []*workload.Job) map[int]refOutcome {
	r := &refScheduler{
		cpus: cfg.CPUs, gears: cfg.Gears, tm: cfg.TimeModel, policy: cfg.Policy,
		variant: cfg.Variant, order: cfg.Order, resv: cfg.Reservations,
		out: map[int]refOutcome{},
	}
	arrivals := append([]*workload.Job(nil), jobs...)
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].Submit < arrivals[b].Submit })
	for next := 0; next < len(arrivals) || len(r.running) > 0; {
		done := -1
		for i, rj := range r.running {
			if done < 0 || rj.ends < r.running[done].ends {
				done = i
			}
		}
		var now float64
		if done >= 0 && (next == len(arrivals) || r.running[done].ends <= arrivals[next].Submit) {
			rj := r.running[done]
			now = rj.ends
			r.out[rj.job.ID] = refOutcome{start: rj.start, end: now, gear: rj.gear}
			r.running = append(r.running[:done], r.running[done+1:]...)
		} else {
			now = arrivals[next].Submit
			r.queue = append(r.queue, arrivals[next])
			next++
		}
		r.pass(now)
	}
	return r.out
}

func (r *refScheduler) coef(j *workload.Job, g dvfs.Gear) float64 {
	return r.tm.CoefWithBeta(j.Beta, g)
}

// killLimit is j's planned occupancy at gear g.
func (r *refScheduler) killLimit(j *workload.Job, g dvfs.Gear) float64 {
	return j.ReqTime * r.coef(j, g)
}

// held is the planning end of an occupancy ending at t, seen at now: a
// job still holds its processors at now itself, even at its kill limit.
func held(t, now float64) float64 {
	if t <= now {
		return math.Nextafter(now, math.Inf(1))
	}
	return t
}

func (r *refScheduler) free() int {
	free := r.cpus
	for _, rj := range r.running {
		free -= rj.job.Procs
	}
	return free
}

func (r *refScheduler) start(j *workload.Job, g dvfs.Gear, now float64) {
	r.running = append(r.running, refRunning{
		job: j, gear: g, start: now,
		planned: now + r.killLimit(j, g),
		ends:    now + j.EffectiveRuntime()*r.coef(j, g),
	})
}

func (r *refScheduler) pass(now float64) {
	if r.order == sched.SJFOrder {
		sort.SliceStable(r.queue, func(a, b int) bool {
			if r.queue[a].ReqTime != r.queue[b].ReqTime {
				return r.queue[a].ReqTime < r.queue[b].ReqTime
			}
			return r.queue[a].ID < r.queue[b].ID
		})
	}
	switch {
	case r.variant == sched.Conservative:
		r.plan(now, len(r.queue))
	case r.variant == sched.EASY && r.resv > 1:
		r.plan(now, r.resv)
	default:
		for len(r.queue) > 0 && r.queue[0].Procs <= r.free() {
			j := r.queue[0]
			r.queue = r.queue[1:]
			r.start(j, r.policy.ReserveGear(j, now, now, len(r.queue)), now)
		}
		if r.variant == sched.EASY && len(r.queue) > 0 {
			r.easyBackfill(now)
		}
	}
}

// shadow returns the blocked head's reservation: the earliest running
// job release after which it fits, and the processors free at that
// instant beyond its own.
func (r *refScheduler) shadow(head *workload.Job, now float64) (float64, int) {
	shadowT, extra := math.Inf(1), 0
	for _, cand := range r.running {
		t := held(cand.planned, now)
		avail := r.free()
		for _, rj := range r.running {
			if held(rj.planned, now) <= t {
				avail += rj.job.Procs
			}
		}
		if avail >= head.Procs && t < shadowT {
			shadowT, extra = t, avail-head.Procs
		}
	}
	return shadowT, extra
}

func (r *refScheduler) easyBackfill(now float64) {
	head := r.queue[0]
	shadowT, extra := r.shadow(head, now)
	free := r.free()
	waiting := len(r.queue)
	kept := []*workload.Job{head}
	for _, j := range r.queue[1:] {
		if j.Procs <= free {
			feasible := func(g dvfs.Gear) bool {
				return now+r.killLimit(j, g) <= shadowT || j.Procs <= extra
			}
			if g, ok := r.policy.BackfillGear(j, now, waiting-1, feasible); ok && feasible(g) {
				r.start(j, g, now)
				free -= j.Procs
				if now+r.killLimit(j, g) > shadowT {
					extra -= j.Procs
				}
				waiting--
				continue
			}
		}
		kept = append(kept, j)
	}
	r.queue = kept
}

// plan replans the whole queue: the first maxRes jobs start or get a
// reservation, the rest may only start now without disturbing any.
func (r *refScheduler) plan(now float64, maxRes int) {
	var spans []refSpan
	for _, rj := range r.running {
		spans = append(spans, refSpan{now, held(rj.planned, now), rj.job.Procs})
	}
	waiting := len(r.queue)
	reserved := 0
	var kept []*workload.Job
	for _, j := range r.queue {
		if reserved < maxRes {
			est := r.earliest(spans, j.Procs, r.killLimit(j, r.gears.Top()), now)
			g := r.policy.ReserveGear(j, est, now, waiting-1)
			d := r.killLimit(j, g)
			st := r.earliest(spans, j.Procs, d, now)
			if st <= now {
				r.start(j, g, now)
				spans = append(spans, refSpan{now, held(now+d, now), j.Procs})
				waiting--
				continue
			}
			spans = append(spans, refSpan{st, st + d, j.Procs})
			reserved++
			kept = append(kept, j)
			continue
		}
		feasible := func(g dvfs.Gear) bool {
			return r.earliest(spans, j.Procs, r.killLimit(j, g), now) == now
		}
		if g, ok := r.policy.BackfillGear(j, now, waiting-1, feasible); ok && feasible(g) {
			r.start(j, g, now)
			spans = append(spans, refSpan{now, held(now+r.killLimit(j, g), now), j.Procs})
			waiting--
			continue
		}
		kept = append(kept, j)
	}
	r.queue = kept
}

// earliest returns the earliest t >= from at which cpus processors are
// free at t itself and throughout [t, t+dur), against the busy spans.
// Usage only changes at span boundaries, so the candidates are from and
// every boundary after it: walking the boundaries in time order, a
// candidate opens where usage drops to fit and fails at the first
// boundary where it no longer fits, unless that boundary is dur or more
// after it.
func (r *refScheduler) earliest(spans []refSpan, cpus int, dur, from float64) float64 {
	type change struct {
		t float64
		d int
	}
	var changes []change
	for _, s := range spans {
		if s.end > s.start {
			changes = append(changes, change{s.start, s.cpus}, change{s.end, -s.cpus})
		}
	}
	slices.SortFunc(changes, func(a, b change) int { return cmp.Compare(a.t, b.t) })
	used, i := 0, 0
	for ; i < len(changes) && changes[i].t <= from; i++ {
		used += changes[i].d
	}
	cand, open := from, used+cpus <= r.cpus
	for i < len(changes) {
		t := changes[i].t
		for ; i < len(changes) && changes[i].t == t; i++ {
			used += changes[i].d
		}
		if used+cpus > r.cpus {
			if open && t-cand >= dur {
				return cand
			}
			open = false
		} else if !open {
			cand, open = t, true
		}
	}
	return cand
}

// varyingPolicy is a deterministic gear policy whose decisions depend on
// everything a pass may change — the queue depth and the reservation's
// earliest start — so a stale reservation reuse in the production
// scheduler's persistent profile shows up as a schedule divergence.
type varyingPolicy struct {
	gears dvfs.GearSet
}

func (p varyingPolicy) Name() string { return "varying" }

// EstMonotone marks the policy for the widened changed-prefix analysis:
// as the start grows the decision flips gears[0] -> Top at the 120 s
// wait boundary and never back, so it satisfies the monotonicity
// contract while still being genuinely start-dependent.
func (varyingPolicy) EstMonotone() {}

func (p varyingPolicy) ReserveGear(j *workload.Job, start, now float64, wqOthers int) dvfs.Gear {
	if wqOthers > 3 {
		return p.gears.Top()
	}
	if start-j.Submit > 120 {
		return p.gears.Top()
	}
	return p.gears[0]
}

func (p varyingPolicy) BackfillGear(j *workload.Job, now float64, wqOthers int, feasible func(dvfs.Gear) bool) (dvfs.Gear, bool) {
	start := len(p.gears) - 1
	if wqOthers <= 3 && now-j.Submit <= 120 {
		start = 0
	}
	for i := start; i < len(p.gears); i++ {
		if feasible(p.gears[i]) {
			return p.gears[i], true
		}
	}
	return dvfs.Gear{}, false
}

// outcomeRecorder captures the production schedule.
type outcomeRecorder struct {
	starts map[int]float64
	gears  map[int]dvfs.Gear
	out    map[int]refOutcome
}

func newOutcomeRecorder() *outcomeRecorder {
	return &outcomeRecorder{starts: map[int]float64{}, gears: map[int]dvfs.Gear{}, out: map[int]refOutcome{}}
}

func (o *outcomeRecorder) JobStarted(rs *sched.RunState, now float64) {
	o.starts[rs.Job.ID] = now
	o.gears[rs.Job.ID] = rs.Gear
}

func (o *outcomeRecorder) JobFinished(rs *sched.RunState, now float64) {
	id := rs.Job.ID
	if rs.Gear != o.gears[id] {
		o.gears[id] = dvfs.Gear{} // a re-gear the reference cannot produce
	}
	o.out[id] = refOutcome{start: o.starts[id], end: now, gear: o.gears[id]}
}

// oracleVariants is the base-policy axis of the oracle grid.
var oracleVariants = []struct {
	name    string
	variant sched.Variant
	resv    int
}{
	{"easy", sched.EASY, 0},
	{"flexible-4", sched.EASY, 4},
	{"conservative", sched.Conservative, 0},
	{"fcfs", sched.FCFS, 0},
}

// namedPolicy labels one gear policy of the oracle grid.
type namedPolicy struct {
	name   string
	policy sched.GearPolicy
}

// oraclePolicies is the gear-policy axis of the oracle grid: the no-DVFS
// baseline, the start- and depth-sensitive test policy, and the paper's
// BSLD-threshold policy at BSLDth 2 / WQth 4.
func oraclePolicies(t testing.TB, gears dvfs.GearSet, tm dvfs.TimeModel) []namedPolicy {
	paper, err := core.NewPolicy(core.Params{BSLDThreshold: 2, WQThreshold: 4}, gears, tm)
	if err != nil {
		t.Fatal(err)
	}
	return []namedPolicy{
		{"top", sched.FixedGear{Gear: gears.Top()}},
		{"varying", varyingPolicy{gears: gears}},
		{"paper", paper},
	}
}

// checkAgainstOracle replays tr through the production System and the
// reference and fails on the first job whose start, end or gear differ.
// It returns how many jobs waited.
func checkAgainstOracle(t testing.TB, cfg sched.Config, tr *workload.Trace) int {
	t.Helper()
	rec := newOutcomeRecorder()
	cfg.Recorder = rec
	sys, err := sched.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Simulate(tr); err != nil {
		t.Fatalf("%s: %v", tr.Name, err)
	}
	want := refSchedule(cfg, tr.Jobs)
	if len(rec.out) != len(tr.Jobs) || len(want) != len(tr.Jobs) {
		t.Fatalf("%s: production finished %d jobs, reference %d, trace %d", tr.Name, len(rec.out), len(want), len(tr.Jobs))
	}
	ids := make([]int, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if got := rec.out[id]; got != want[id] {
			t.Fatalf("%s: job %d start %v end %v gear %v, reference start %v end %v gear %v",
				tr.Name, id, got.start, got.end, got.gear, want[id].start, want[id].end, want[id].gear)
		}
	}
	waited := 0
	for _, j := range tr.Jobs {
		if want[j.ID].start > j.Submit {
			waited++
		}
	}
	return waited
}

// oracleTrace draws n jobs on cpus processors at an offered load near
// saturation, so queues form and drain. Submits, runtimes and requested
// times are whole seconds, so submits tie and kill limits coincide; a
// share of jobs run exactly to their kill limit, finish instantly, or
// span the whole machine.
func oracleTrace(seed int64, cpus, n int) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	tr := &workload.Trace{Name: fmt.Sprintf("oracle-%d", seed), CPUs: cpus}
	at := 0.0
	for i := 0; i < n; i++ {
		at += float64(r.Intn(56))
		rq := float64(10 * (1 + r.Intn(30)))
		rt := float64(r.Intn(int(rq) + 1))
		switch r.Intn(8) {
		case 0:
			rt = rq // killed at its limit
		case 1:
			rt = 0
		}
		procs := 1 + r.Intn(cpus/2)
		if r.Intn(16) == 0 {
			procs = cpus
		}
		tr.Jobs = append(tr.Jobs, &workload.Job{
			ID: i + 1, Submit: at, Runtime: rt, ReqTime: rq, Procs: procs, Beta: -1,
		})
	}
	return tr
}

// shuffledTrace returns tr's jobs out of submit order, with submits
// coarsened so that many tie: the scheduler must replay it exactly like
// the stable submit-sorted trace.
func shuffledTrace(seed int64, tr *workload.Trace) *workload.Trace {
	r := rand.New(rand.NewSource(seed))
	out := &workload.Trace{Name: tr.Name + "-shuffled", CPUs: tr.CPUs}
	for _, j := range tr.Jobs {
		cp := *j
		cp.Submit = 60 * math.Floor(cp.Submit/60)
		out.Jobs = append(out.Jobs, &cp)
	}
	r.Shuffle(len(out.Jobs), func(a, b int) { out.Jobs[a], out.Jobs[b] = out.Jobs[b], out.Jobs[a] })
	return out
}

// TestScheduleMatchesOracle is the differential suite: every base policy
// (EASY, EASY with 4 reservations, conservative, FCFS) under both queue
// orders and three gear policies replays randomized workloads through the
// production System and the reference scheduler, which must agree on
// every job's start, end and gear. Each policy and order has two cells:
// the base cell replays 20 random traces plus shuffled traces with tied
// submits given out of order; the -phases cell replays the drained and
// deep-queue phase traces that move the replanning variants in and out
// of their profile-free passes. A cell whose traces barely queue would
// check little, so each must make a quarter of its jobs wait.
func TestScheduleMatchesOracle(t *testing.T) {
	const cpus = 16
	gears := dvfs.PaperGearSet()
	tm := dvfs.NewTimeModel(0.5, gears)
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	suites := []struct {
		suffix string
		seeds  int64
		inputs func(seed int64) []*workload.Trace
	}{
		{"", seeds, func(seed int64) []*workload.Trace {
			tr := oracleTrace(seed, cpus, 200)
			if seed <= 4 {
				return []*workload.Trace{tr, shuffledTrace(seed, tr)}
			}
			return []*workload.Trace{tr}
		}},
		{"-phases", 4, func(seed int64) []*workload.Trace {
			return []*workload.Trace{sched.PhasesTrace(seed, cpus)}
		}},
	}
	for _, v := range oracleVariants {
		for _, order := range []sched.Order{sched.FCFSOrder, sched.SJFOrder} {
			for _, suite := range suites {
				name := v.name
				if order == sched.SJFOrder {
					name += "-sjf"
				}
				name += suite.suffix
				for _, pol := range oraclePolicies(t, gears, tm) {
					t.Run(name+"/"+pol.name, func(t *testing.T) {
						cfg := sched.Config{
							CPUs: cpus, Gears: gears, TimeModel: tm, Policy: pol.policy,
							Variant: v.variant, Order: order, Reservations: v.resv,
						}
						jobs, waited := 0, 0
						for seed := int64(1); seed <= suite.seeds; seed++ {
							for _, in := range suite.inputs(seed) {
								jobs += len(in.Jobs)
								waited += checkAgainstOracle(t, cfg, in)
							}
						}
						if 4*waited < jobs {
							t.Fatalf("only %d of %d jobs waited", waited, jobs)
						}
					})
				}
			}
		}
	}
}

// FuzzOracleSchedule decodes arbitrary bytes into a small workload and a
// grid cell and checks the production schedule against the reference.
// The first byte picks the cell: base policy (byte % 4), queue order
// (byte/4 % 2) and gear policy (byte/8 % 3). Every following 4-byte
// group is one job: the submit gap, the requested time, the runtime as a
// share of it (with kill-limit-exact and zero runtimes), and the width.
// The seed corpus lives under testdata/fuzz/FuzzOracleSchedule; CI runs
// a short -fuzz smoke on top of it.
func FuzzOracleSchedule(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 15, 0, 5, 1, 15, 3, 9, 200, 7})
	f.Add([]byte{2, 1, 3, 3, 9, 0, 3, 3, 9, 0, 8, 100, 15, 1, 1, 1, 2})
	f.Add([]byte{17, 0, 29, 0, 15, 0, 29, 0, 15, 0, 10, 4, 4, 2, 2, 2, 2, 9, 1, 0, 15})
	gears := dvfs.PaperGearSet()
	tm := dvfs.NewTimeModel(0.5, gears)
	policies := oraclePolicies(f, gears, tm)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		const cpus = 16
		cell := int(data[0])
		v := oracleVariants[cell%4]
		order := sched.Order((cell / 4) % 2)
		cfg := sched.Config{
			CPUs: cpus, Gears: gears, TimeModel: tm, Policy: policies[(cell/8)%3].policy,
			Variant: v.variant, Order: order, Reservations: v.resv,
		}
		tr := &workload.Trace{Name: "fuzz", CPUs: cpus}
		at := 0.0
		for b := data[1:]; len(b) >= 4 && len(tr.Jobs) < 64; b = b[4:] {
			at += float64(b[0] % 60)
			rq := float64(10 * (1 + int(b[1])%30))
			var rt float64
			switch b[2] % 4 {
			case 0:
				rt = rq
			case 1:
				rt = 0
			default:
				rt = math.Floor(rq * float64(b[2]) / 255)
			}
			tr.Jobs = append(tr.Jobs, &workload.Job{
				ID: len(tr.Jobs) + 1, Submit: at, Runtime: rt, ReqTime: rq, Procs: 1 + int(b[3])%cpus, Beta: -1,
			})
		}
		if len(tr.Jobs) == 0 {
			return
		}
		checkAgainstOracle(t, cfg, tr)
	})
}
