package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/profile"
	"repro/internal/workload"
)

// checkRelIndexInvariants verifies the index's structural contract: every
// chunk non-empty and below the split threshold, entries sorted strictly
// by (t, id) within and across chunks, and the size counter exact. Shared
// by the differential suite and the fuzz target.
func checkRelIndexInvariants(ix *relIndex) error {
	n := 0
	var prev release
	first := true
	for ci, ch := range ix.chunks {
		if len(ch) == 0 {
			return fmt.Errorf("chunk %d is empty", ci)
		}
		if len(ch) >= relChunkMax {
			return fmt.Errorf("chunk %d holds %d entries, split threshold %d", ci, len(ch), relChunkMax)
		}
		for k, r := range ch {
			if !first && !relKeyAtOrAfter(r, prev.t, prev.id) {
				return fmt.Errorf("order violated at chunk %d entry %d: (%v,%d) after (%v,%d)",
					ci, k, r.t, r.id, prev.t, prev.id)
			}
			if !first && r.t == prev.t && r.id == prev.id {
				return fmt.Errorf("duplicate key (%v,%d) at chunk %d entry %d", r.t, r.id, ci, k)
			}
			prev, first = r, false
			n++
		}
	}
	if n != ix.size {
		return fmt.Errorf("size counter %d, %d entries present", ix.size, n)
	}
	return nil
}

// each calls fn on every release in (t, id) order until fn returns false.
func (ix *relIndex) each(fn func(release) bool) {
	for _, ch := range ix.chunks {
		for _, r := range ch {
			if !fn(r) {
				return
			}
		}
	}
}

// relOracle is the naive sorted-slice reference the index is checked
// against: the exact memmove implementation the index replaces.
type relOracle struct {
	rels []release
}

func (o *relOracle) insert(r release) {
	i := sort.Search(len(o.rels), func(k int) bool {
		c := o.rels[k]
		return c.t > r.t || (c.t == r.t && c.id > r.id)
	})
	o.rels = append(o.rels, release{})
	copy(o.rels[i+1:], o.rels[i:])
	o.rels[i] = r
}

func (o *relOracle) remove(t float64, id int) bool {
	i := sort.Search(len(o.rels), func(k int) bool {
		return relKeyAtOrAfter(o.rels[k], t, id)
	})
	if i >= len(o.rels) || o.rels[i].t != t || o.rels[i].id != id {
		return false
	}
	copy(o.rels[i:], o.rels[i+1:])
	o.rels = o.rels[:len(o.rels)-1]
	return true
}

// compareRelIndex asserts the index agrees with the oracle on size, min,
// full iteration order and the clamped bulk snapshot.
func compareRelIndex(t *testing.T, ix *relIndex, o *relOracle, now float64) {
	t.Helper()
	if err := checkRelIndexInvariants(ix); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if ix.len() != len(o.rels) {
		t.Fatalf("len %d, oracle %d", ix.len(), len(o.rels))
	}
	if mn, ok := ix.min(); ok != (len(o.rels) > 0) {
		t.Fatalf("min ok=%v, oracle has %d entries", ok, len(o.rels))
	} else if ok && mn != o.rels[0] {
		t.Fatalf("min %+v, oracle %+v", mn, o.rels[0])
	}
	i := 0
	ix.each(func(r release) bool {
		if r != o.rels[i] {
			t.Fatalf("iteration[%d] = %+v, oracle %+v", i, r, o.rels[i])
		}
		i++
		return true
	})
	if i != len(o.rels) {
		t.Fatalf("iteration yielded %d entries, oracle %d", i, len(o.rels))
	}
	got := ix.appendClamped(nil, now)
	if len(got) != len(o.rels) {
		t.Fatalf("snapshot %d entries, oracle %d", len(got), len(o.rels))
	}
	for k, r := range o.rels {
		want := profile.Release{Time: clampRelease(r.t, now), CPUs: r.cpus}
		if got[k] != want {
			t.Fatalf("snapshot[%d] = %+v, want %+v (now=%v)", k, got[k], want, now)
		}
	}
}

// TestReleaseIndexMatchesSliceOracle drives the chunked index through
// thousands of randomized add/remove/iterate/snapshot sequences — heavy
// PlannedEnd ties, interleaved gear re-adds (remove + re-insert of a live
// id at a new time), removal of just-inserted entries — and cross-checks
// every observable against the naive sorted-slice oracle. CI runs it
// under -race alongside the rest of the suite.
func TestReleaseIndexMatchesSliceOracle(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		times int // distinct release times: small values force heavy ties
		ops   int
	}{
		{"heavy-ties", 7, 4000},
		{"moderate-ties", 97, 4000},
		{"distinct", 1 << 30, 2000},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(cfg.times)*7919 + 42))
			var ix relIndex
			var o relOracle
			live := map[int]release{} // id -> indexed release
			ids := []int(nil)         // iteration-stable view of live's keys
			nextID := 1

			add := func(id int) {
				rel := release{t: float64(r.Intn(cfg.times)), cpus: 1 + r.Intn(64), id: id}
				ix.insert(rel)
				o.insert(rel)
				live[id] = rel
				ids = append(ids, id)
			}
			drop := func(k int) {
				id := ids[k]
				rel := live[id]
				if !ix.remove(rel.t, rel.id) {
					t.Fatalf("remove(%v,%d) reported missing, entry is live", rel.t, rel.id)
				}
				if !o.remove(rel.t, rel.id) {
					t.Fatalf("oracle desync on (%v,%d)", rel.t, rel.id)
				}
				delete(live, id)
				ids[k] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}

			for op := 0; op < cfg.ops; op++ {
				switch c := r.Intn(10); {
				case c < 4 || len(ids) == 0: // insert a fresh release
					add(nextID)
					nextID++
				case c < 6: // remove a random live release
					drop(r.Intn(len(ids)))
				case c == 6: // gear re-add: remove a live id, re-insert at a new time
					k := r.Intn(len(ids))
					id := ids[k]
					drop(k)
					add(id)
				case c == 7: // remove a just-inserted entry
					add(nextID)
					nextID++
					drop(len(ids) - 1)
				case c == 8: // remove of an absent key must miss on both
					tAbs, idAbs := float64(r.Intn(cfg.times)), nextID+1+r.Intn(100)
					if ix.remove(tAbs, idAbs) {
						t.Fatalf("remove(%v,%d) succeeded for an absent key", tAbs, idAbs)
					}
					if o.remove(tAbs, idAbs) {
						t.Fatalf("oracle held absent key (%v,%d)", tAbs, idAbs)
					}
				default: // full comparison including a clamped snapshot
					compareRelIndex(t, &ix, &o, float64(r.Intn(cfg.times)))
				}
				if ix.len() != len(o.rels) {
					t.Fatalf("op %d: len %d, oracle %d", op, ix.len(), len(o.rels))
				}
			}
			compareRelIndex(t, &ix, &o, 0)

			// Drain completely through the index, then rebuild via bulk
			// load and check the loaded shape too.
			for len(ids) > 0 {
				drop(r.Intn(len(ids)))
			}
			compareRelIndex(t, &ix, &o, 0)
			for i := 0; i < 1000; i++ {
				add(nextID)
				nextID++
			}
			sorted := append([]release(nil), o.rels...)
			ix.load(sorted)
			compareRelIndex(t, &ix, &o, 3)
		})
	}
}

// TestReleaseIndexClampGroups pins the snapshot clamp semantics the
// profile depends on: every release at or before now lands on exactly
// math.Nextafter(now, +inf), forming one shared group, and the snapshot
// stays sorted.
func TestReleaseIndexClampGroups(t *testing.T) {
	var ix relIndex
	for id, tm := range []float64{0, 5, 10, 10, 17, 40} {
		ix.insert(release{t: tm, cpus: 2, id: id + 1})
	}
	now := 10.0
	snap := ix.appendClamped(nil, now)
	eps := math.Nextafter(now, math.Inf(1))
	for i, rel := range snap {
		if i < 4 {
			if rel.Time != eps {
				t.Errorf("snapshot[%d].Time = %v, want clamp %v", i, rel.Time, eps)
			}
		} else if rel.Time <= now {
			t.Errorf("snapshot[%d].Time = %v should be unclamped", i, rel.Time)
		}
		if i > 0 && rel.Time < snap[i-1].Time {
			t.Errorf("snapshot not sorted at %d: %v < %v", i, rel.Time, snap[i-1].Time)
		}
	}
}

// relIndexAudit wraps boostingPolicy and, after every pass once the
// release index is materialized, checks it against the run list: the
// guard that classic EASY keeps its schedule incrementally instead of
// re-sorting the running jobs on blocked passes.
type relIndexAudit struct {
	boostingPolicy
	t               *testing.T
	checked, boosts int
}

func (p *relIndexAudit) ControlPass(sys *System, now float64) {
	if sys.QueueLen() > 2 {
		for _, rs := range sys.Running() {
			if rs.Gear != p.gears.Top() {
				p.boosts++
			}
		}
	}
	p.boostingPolicy.ControlPass(sys, now)
	if !sys.relLive {
		if p.checked > 0 {
			p.t.Fatalf("t=%v: materialized index went stale", now)
		}
		return
	}
	p.checked++
	if sys.relLoads != 1 {
		p.t.Fatalf("t=%v: %d bulk loads, want exactly 1", now, sys.relLoads)
	}
	if err := checkRelIndexInvariants(&sys.relIdx); err != nil {
		p.t.Fatalf("t=%v: %v", now, err)
	}
	var want []release
	for _, rs := range sys.Running() {
		want = append(want, release{t: rs.PlannedEnd, cpus: rs.Job.Procs, id: rs.Job.ID})
	}
	sort.Slice(want, func(i, j int) bool {
		return want[i].t < want[j].t || (want[i].t == want[j].t && want[i].id < want[j].id)
	})
	var got []release
	sys.relIdx.each(func(r release) bool { got = append(got, r); return true })
	if len(got) != len(want) {
		p.t.Fatalf("t=%v: index holds %d releases, run list %d", now, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			p.t.Fatalf("t=%v: index[%d] = %+v, run list %+v", now, i, got[i], want[i])
		}
	}
}

// TestEASYReleaseIndexLazyAndCurrent pins classic EASY's release
// schedule: a replay that never blocks never materializes the index,
// and a saturated one loads it once on the first blocked pass and from
// then on keeps it equal to the run list's sorted releases through
// starts, completions and gear switches.
func TestEASYReleaseIndexLazyAndCurrent(t *testing.T) {
	t.Run("never-blocked", func(t *testing.T) {
		tr := &workload.Trace{Name: "idle", CPUs: 16}
		for i := 0; i < 200; i++ {
			tr.Jobs = append(tr.Jobs, &workload.Job{
				ID: i + 1, Submit: float64(10 * i), Runtime: 5, ReqTime: 8, Procs: 1 + i%16, Beta: -1,
			})
		}
		sys := paperSystem(t, 16, EASY, topPolicy(), nil)
		if err := sys.Simulate(tr); err != nil {
			t.Fatal(err)
		}
		if sys.relLive || sys.relLoads != 0 || sys.relIdx.len() != 0 || len(sys.relIdx.chunks) != 0 {
			t.Fatalf("never-queued replay materialized the index: live %v, %d loads, %d releases",
				sys.relLive, sys.relLoads, sys.relIdx.len())
		}
	})
	t.Run("saturated-boosting", func(t *testing.T) {
		// ~800 jobs run at once on 2048 CPUs, enough for the index to
		// split and merge chunks; offered load exceeds the machine, so
		// the queue builds and the boost re-gears running jobs.
		const cpus = 2048
		r := rand.New(rand.NewSource(5))
		tr := &workload.Trace{Name: "saturated", CPUs: cpus}
		at := 0.0
		for i := 0; i < 2500; i++ {
			at += r.Float64() * 0.25
			rt := 1 + r.Float64()*300
			tr.Jobs = append(tr.Jobs, &workload.Job{
				ID: i + 1, Submit: at, Runtime: rt, ReqTime: rt * (1 + r.Float64()), Procs: 1 + r.Intn(4), Beta: -1,
			})
		}
		gears := dvfs.PaperGearSet()
		pol := &relIndexAudit{boostingPolicy: boostingPolicy{gears: gears}, t: t}
		sys := paperSystem(t, cpus, EASY, pol, nil)
		if err := sys.Simulate(tr); err != nil {
			t.Fatal(err)
		}
		if pol.checked == 0 || pol.boosts == 0 {
			t.Fatalf("fixture too light: %d audited passes, %d boosts", pol.checked, pol.boosts)
		}
		if sys.relIdx.len() != 0 {
			t.Errorf("drained replay left %d releases indexed", sys.relIdx.len())
		}
	})
}
