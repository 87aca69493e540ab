package profile

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchProfile(entries int) *Profile {
	r := rand.New(rand.NewSource(7))
	p := New(1024)
	for i := 0; i < entries; i++ {
		s := r.Float64() * 1e5
		p.Occupy(1+r.Intn(512), s, s+1+r.Float64()*1e4)
	}
	return p
}

// BenchmarkEarliestStart measures the planning query driving conservative
// and flexible backfilling.
func BenchmarkEarliestStart(b *testing.B) {
	p := benchProfile(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.EarliestStart(64, 3600, float64(i%100000))
	}
}

// BenchmarkReplanPass models one conservative replanning pass from a
// fresh epoch at scale: bulk-load n running-job releases, then
// interleave reservation placements with EarliestStart queries for a
// queue of 256 jobs. The per-pass time must grow near-linearly in n —
// watch ns/op roughly 4× per 4× n.
func BenchmarkReplanPass(b *testing.B) {
	for _, n := range []int{1_000, 4_000, 16_000} {
		b.Run(fmt.Sprintf("running=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(11))
			rels := make([]Release, n)
			t := 0.0
			for i := range rels {
				t += r.Float64() * 10
				rels[i] = Release{Time: 1 + t, CPUs: 1 + r.Intn(64)}
			}
			const total = 1 << 20
			p := New(total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.StartEpoch(total, 0, rels)
				for k := 0; k < 256; k++ {
					st := p.EarliestStart(1024, 3600, 0)
					p.AddReservation(Entry{Start: st, End: st + 3600, CPUs: 1024})
				}
			}
		})
	}
}

// BenchmarkIncrementalPass models the persistent-profile steady state at
// n running jobs: each pass advances the horizon, credits one early
// completion, records one start and answers two planning queries — no
// rebuild anywhere. Compare with BenchmarkReplanPass, which pays the
// bulk load on every pass: the per-pass cost here must be independent of
// n up to the O(log n) query descents and the amortized fold/merge.
func BenchmarkIncrementalPass(b *testing.B) {
	for _, n := range []int{1_000, 4_000, 16_000} {
		b.Run(fmt.Sprintf("running=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(11))
			const total = 1 << 20
			type job struct {
				cpus int
				end  float64
			}
			rels := make([]Release, n)
			live := make([]job, 0, n+1)
			t := 0.0
			for i := range rels {
				t += 1 + r.Float64()*10
				rels[i] = Release{Time: t, CPUs: 1 + r.Intn(64)}
				live = append(live, job{cpus: rels[i].CPUs, end: rels[i].Time})
			}
			dur := t // every new job outlives all current ends, keeping the ring sorted
			p := New(total)
			p.StartEpoch(total, 0, rels)
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := live[0]
				live = live[1:]
				now = done.end - 0.5
				p.BeginPass(now)
				p.Vacate(done.cpus, now, done.end)
				started := job{cpus: 1 + r.Intn(64), end: now + dur}
				p.Occupy(started.cpus, now, started.end)
				live = append(live, started)
				p.EarliestStart(1024, 3600, now)
				p.EarliestStart(64, 36000, now)
			}
		})
	}
}

// BenchmarkIncrementalPassResv isolates the reservation-tier cost the
// conservative variant adds on top of the base skyline: each pass keeps
// the usual completion/start churn, then invalidates half the planned
// queue (TruncateReservations), replaces it with fresh placements at
// their earliest starts, and answers backfill-style probes through the
// reservation overlay. As with BenchmarkIncrementalPass, per-pass cost must stay independent of
// the running-set size n up to logarithmic factors.
func BenchmarkIncrementalPassResv(b *testing.B) {
	const queue = 64
	for _, n := range []int{1_000, 4_000, 16_000} {
		b.Run(fmt.Sprintf("running=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(11))
			const total = 1 << 20
			type job struct {
				cpus int
				end  float64
			}
			rels := make([]Release, n)
			live := make([]job, 0, n+1)
			t := 0.0
			for i := range rels {
				t += 1 + r.Float64()*10
				rels[i] = Release{Time: t, CPUs: 1 + r.Intn(64)}
				live = append(live, job{cpus: rels[i].CPUs, end: rels[i].Time})
			}
			dur := t
			p := New(total)
			p.StartEpoch(total, 0, rels)
			now := 0.0
			for k := 0; k < queue; k++ {
				st := p.EarliestStart(256, 3600, now)
				p.AddReservation(Entry{Start: st, End: st + 3600, CPUs: 256})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := live[0]
				live = live[1:]
				now = done.end - 0.5
				p.BeginPass(now)
				p.Vacate(done.cpus, now, done.end)
				started := job{cpus: 1 + r.Intn(64), end: now + dur}
				p.Occupy(started.cpus, now, started.end)
				live = append(live, started)
				p.TruncateReservations(queue / 2)
				for k := p.Reservations(); k < queue; k++ {
					st := p.EarliestStart(256, 3600, now)
					p.AddReservation(Entry{Start: st, End: st + 3600, CPUs: 256})
				}
				p.EarliestStart(1024, 7200, now)
				p.CanPlace(64, now, 600)
			}
		})
	}
}

// BenchmarkCanPlace measures the backfill feasibility check.
func BenchmarkCanPlace(b *testing.B) {
	p := benchProfile(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.CanPlace(64, float64(i%100000), 3600)
	}
}
