package sweep

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// FuzzGridValidate hardens grid axis validation against arbitrary input:
// Validate must never panic, and any grid it accepts must expand to
// exactly Size() points whose axis values echo the declared axes.
func FuzzGridValidate(f *testing.F) {
	f.Add("CTC,SDSC", 2.0, 16, false, 1.2, 430, "easy", "firstfit", "fcfs", 0)
	f.Add("CTC", 0.0, 0, false, 1.0, 0, "", "", "", 0)
	f.Add("", 1.5, core.NoWQLimit, true, 0.5, -1, "fcfs", "nextfit", "sjf", 2)
	f.Add("LLNLAtlas", 0.99, -3, false, -2.0, 9216, "conservative", "contiguous", "lifo", -1)
	f.Add("a,,b", 3.0, 4, true, 2.25, 128, "bogus", "worstfit", "fcfs", 1000)
	f.Fuzz(func(t *testing.T, traces string, bsld float64, wq int, boost bool,
		sf float64, cpus int, variant, selection, order string, res int) {
		var names []string
		if traces != "" {
			names = strings.Split(traces, ",")
		}
		g := Grid{
			Traces:       names,
			Policies:     []scenario.PolicyConfig{{BSLDThr: bsld, WQThr: wq, Boost: boost, BoostWQ: wq}},
			SizeFactors:  []float64{sf},
			CPUs:         []int{cpus},
			Variants:     []string{variant},
			Selections:   []string{selection},
			Orders:       []string{order},
			Reservations: []int{res},
		}
		if err := g.Validate(); err != nil {
			return
		}
		pts := g.Points()
		if len(pts) != g.Size() {
			t.Fatalf("valid grid expanded to %d points, Size() = %d", len(pts), g.Size())
		}
		if len(pts) != len(names) {
			t.Fatalf("one cell per trace expected: %d points for %d traces", len(pts), len(names))
		}
		for i, p := range pts {
			if p.Index != i {
				t.Fatalf("point %d carries Index %d", i, p.Index)
			}
			if p.Trace != names[i] {
				t.Fatalf("point %d trace %q, want %q", i, p.Trace, names[i])
			}
			if p.SizeFactor != sf || p.CPUs != cpus || p.Reservations != res {
				t.Fatalf("axis values not echoed: %+v", p)
			}
			if p.Label() == "" {
				t.Fatal("empty point label")
			}
		}
	})
}
