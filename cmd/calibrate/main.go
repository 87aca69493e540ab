// Command calibrate is a development aid: it prints baseline and
// DVFS-policy metrics for the five workload presets so generator loads can
// be tuned against the paper's Tables 1 and 3. The 25-run grid executes
// in parallel through the sweep pool; output stays in preset order.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/wgen"
)

func main() {
	presets := wgen.Presets()
	grid := sweep.Grid{
		Policies: []scenario.PolicyConfig{
			{}, // no-DVFS baseline, the normalization denominator
			{BSLDThr: 1.5, WQThr: 0},
			{BSLDThr: 2, WQThr: 4},
			{BSLDThr: 2, WQThr: core.NoWQLimit},
			{BSLDThr: 3, WQThr: core.NoWQLimit},
		},
	}
	for _, m := range presets {
		grid.Traces = append(grid.Traces, m.Name)
	}
	// Name-based resolution through the scenario compiler: each preset
	// generates once at its native length (Jobs: 0) into a shared arena
	// all five policy cells execute against.
	resolver := &sweep.Resolver{Materialize: true}
	results, err := sweep.Sweep(context.Background(), grid, resolver, nil)
	if err != nil {
		fail(err)
	}
	perPreset := len(grid.Policies)
	for i := range presets {
		rows := results[i*perPreset : (i+1)*perPreset]
		for _, r := range rows {
			if r.Err != nil {
				fail(fmt.Errorf("%s: %w", r.Point.Label(), r.Err))
			}
		}
		base := rows[0].Outcome
		fmt.Printf("%-12s base: BSLD=%6.2f wait=%7.0f Ecomp=%11.4g\n",
			rows[0].Point.Trace, base.Results.AvgBSLD, base.Results.AvgWait, base.Results.CompEnergy)
		for _, r := range rows[1:] {
			out := r.Outcome
			fmt.Printf("  %-14s BSLD=%6.2f wait=%7.0f Ecomp=%6.2f%% Elow=%6.2f%% reduced=%4d\n",
				out.Policy, out.Results.AvgBSLD, out.Results.AvgWait,
				100*out.Results.CompEnergy/base.Results.CompEnergy,
				100*out.Results.TotalEnergyLow/base.Results.TotalEnergyLow,
				out.Results.ReducedJobs)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}
