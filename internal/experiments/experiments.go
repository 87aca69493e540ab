package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/textplot"
)

// EnergyMode selects between the paper's two energy accountings.
type EnergyMode int

const (
	// EnergyIdleZero is "computational energy": idle processors dissipate
	// no power.
	EnergyIdleZero EnergyMode = iota
	// EnergyIdleLow charges idle processors the lowest-gear idle power.
	EnergyIdleLow
)

func (m EnergyMode) String() string {
	if m == EnergyIdleZero {
		return "idle=0"
	}
	return "idle=low"
}

// energy extracts the cell's energy under the mode.
func (m EnergyMode) energy(c *Cell) float64 {
	if m == EnergyIdleZero {
		return c.Results.CompEnergy
	}
	return c.Results.TotalEnergyLow
}

func pct(v float64) string  { return fmt.Sprintf("%.2f%%", 100*v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func sec0(v float64) string { return fmt.Sprintf("%.0f", v) }

// baselineCell fetches the original-size no-DVFS run for a workload.
func (s *Suite) baselineCell(w string) (*Cell, error) {
	return s.Cell(Config{Workload: w, SizeFactor: 1})
}

// Table1 reproduces Table 1: workload characteristics and the average
// BSLD without DVFS, annotated with the paper's values.
func Table1(s *Suite) (textplot.Table, error) {
	t := textplot.Table{
		Title:  "Table 1: Workloads",
		Header: []string{"Workload", "CPUs", "Jobs", "AvgBSLD", "paper", "AvgWait(s)", "Util"},
		Note:   "paper column: Table 1 of Etinski et al. 2010 (5000-job segments, no DVFS)",
	}
	for _, w := range Workloads() {
		c, err := s.baselineCell(w)
		if err != nil {
			return t, err
		}
		t.AddRow(w, fmt.Sprint(c.CPUs), fmt.Sprint(c.Results.Jobs),
			f2(c.Results.AvgBSLD), f2(PaperTable1BSLD[w]),
			sec0(c.Results.AvgWait), f2(c.Results.Utilization))
	}
	return t, nil
}

// Table2 reproduces Table 2: the DVFS gear set, with the derived power
// figures of the model (Section 4).
func Table2() textplot.Table {
	pm := dvfs.PaperPowerModel()
	t := textplot.Table{
		Title:  "Table 2: DVFS gear set",
		Header: []string{"Frequency(GHz)", "Voltage(V)", "Pdyn", "Pstatic", "Pactive", "E/work vs top"},
		Note: fmt.Sprintf("idle power = %.4g (%.1f%% of top active power, paper says ~21%%); static fraction at top = 25%%",
			pm.Idle(), 100*pm.IdleFraction()),
	}
	tm := dvfs.NewTimeModel(0.5, pm.Gears)
	top := pm.Gears.Top()
	for _, g := range pm.Gears {
		ratio := pm.Active(g) * tm.CoefGear(g) / pm.Active(top)
		t.AddRow(fmt.Sprintf("%.1f", g.Freq), fmt.Sprintf("%.1f", g.Voltage),
			fmt.Sprintf("%.3f", pm.Dynamic(g)), fmt.Sprintf("%.3f", pm.Static(g)),
			fmt.Sprintf("%.3f", pm.Active(g)), pct(ratio))
	}
	return t
}

// PaperGrid declares the Figures 3–5 study — workload × BSLD threshold ×
// WQ threshold at the original machine size — as a sweep grid.
func PaperGrid() sweep.Grid {
	return sweep.Grid{Traces: Workloads(), Policies: PaperPolicies()}
}

// EnlargedGrid declares the Figures 7–9 / Table 3 study: every workload
// on enlarged machines at BSLDthreshold 2 for both WQ extremes.
func EnlargedGrid() sweep.Grid {
	return sweep.Grid{
		Traces: Workloads(),
		Policies: []scenario.PolicyConfig{
			{BSLDThr: 2, WQThr: 0},
			{BSLDThr: 2, WQThr: core.NoWQLimit},
		},
		SizeFactors: SizeFactors(),
	}
}

// configsOf converts a sweep grid's points into suite cache keys, in
// expansion order.
func configsOf(g sweep.Grid) []Config {
	pts := g.Points()
	cfgs := make([]Config, len(pts))
	for i, p := range pts {
		cfgs[i] = Config{
			Workload:   p.Trace,
			BSLDThr:    p.Policy.BSLDThr,
			WQThr:      p.Policy.WQThr,
			SizeFactor: p.SizeFactor,
		}
	}
	return cfgs
}

// gridTable builds a (workload × threshold) × WQ table from a cell value
// extractor. Every figure of the original-size study shares this layout.
func gridTable(s *Suite, title, note string, value func(c, base *Cell) string) (textplot.Table, error) {
	t := textplot.Table{
		Title:  title,
		Header: []string{"Workload", "BSLDthr", "WQ 0", "WQ 4", "WQ 16", "WQ NO"},
		Note:   note,
	}
	for _, w := range Workloads() {
		base, err := s.baselineCell(w)
		if err != nil {
			return t, err
		}
		for _, thr := range BSLDThresholds() {
			row := []string{w, fmt.Sprintf("%g", thr)}
			for _, wq := range WQThresholds() {
				c, err := s.Cell(Config{Workload: w, BSLDThr: thr, WQThr: wq, SizeFactor: 1})
				if err != nil {
					return t, err
				}
				row = append(row, value(c, base))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig3 reproduces Figure 3: CPU energy of the power-aware schedule
// normalized to the no-DVFS baseline, for the given energy mode.
func Fig3(s *Suite, mode EnergyMode) (textplot.Table, error) {
	return gridTable(s,
		fmt.Sprintf("Figure 3 (%s): normalized energy, original system size", mode),
		"1.00 = no-DVFS baseline energy; lower is better. Paper: all workloads except SDSC save ~10%+, up to 22% at (3, NO).",
		func(c, base *Cell) string {
			return pct(mode.energy(c) / mode.energy(base))
		})
}

// Fig4 reproduces Figure 4: the number of jobs run at reduced frequency.
func Fig4(s *Suite) (textplot.Table, error) {
	return gridTable(s,
		"Figure 4: number of jobs run at reduced frequency",
		"Paper highlights: LLNLThunder 1219 @ (1.5,4) vs 854 @ (2,4); SDSCBlue 2778 @ (2,NO) vs 2654 @ (3,NO).",
		func(c, _ *Cell) string { return fmt.Sprint(c.Results.ReducedJobs) })
}

// Fig5 reproduces Figure 5: average BSLD under the power-aware scheduler.
func Fig5(s *Suite) (textplot.Table, error) {
	return gridTable(s,
		"Figure 5: average BSLD, original system size",
		"Baselines (Table 1): CTC 4.66, SDSC 24.91, SDSCBlue 5.15, LLNLThunder 1, LLNLAtlas 1.08 in the paper.",
		func(c, _ *Cell) string { return f2(c.Results.AvgBSLD) })
}

// Fig6Series returns the SDSC-Blue wait-time traces of Figure 6: the
// no-DVFS baseline and the (BSLDthr=2, WQ=16) power-aware schedule.
func Fig6Series(s *Suite) (orig, dvfsRun []*Cell, err error) {
	base, err := s.Cell(Config{Workload: "SDSCBlue", SizeFactor: 1})
	if err != nil {
		return nil, nil, err
	}
	pol, err := s.Cell(Config{Workload: "SDSCBlue", BSLDThr: 2, WQThr: 16, SizeFactor: 1})
	if err != nil {
		return nil, nil, err
	}
	return []*Cell{base}, []*Cell{pol}, nil
}

// Fig6 renders Figure 6 as an ASCII line chart of per-job wait time over
// a window of the SDSC-Blue trace (the paper zooms into a segment; we
// plot the middle third, where queueing is established).
func Fig6(s *Suite) (string, textplot.Table, error) {
	origCells, dvfsCells, err := Fig6Series(s)
	if err != nil {
		return "", textplot.Table{}, err
	}
	orig, dvfsRun := origCells[0], dvfsCells[0]
	window := func(c *Cell) [][2]float64 {
		pts := c.WaitSeries
		lo, hi := len(pts)/3, 2*len(pts)/3
		out := make([][2]float64, 0, hi-lo)
		for _, p := range pts[lo:hi] {
			out = append(out, [2]float64{p.Submit, p.Wait})
		}
		return out
	}
	chart := textplot.LineChart(
		"Figure 6: SDSCBlue wait time (middle third of trace), seconds",
		[]string{"Orig", "DVFS_2_16"},
		[][][2]float64{window(orig), window(dvfsRun)}, 72, 18)

	t := textplot.Table{
		Title:  "Figure 6 (summary): SDSCBlue wait time, Orig vs DVFS(2,16)",
		Header: []string{"Series", "AvgWait(s)", "MaxWait(s)"},
		Note:   "paper: wait time with frequency scaling is much higher than without it",
	}
	t.AddRow("Orig", sec0(orig.Results.AvgWait), sec0(orig.Results.MaxWait))
	t.AddRow("DVFS_2_16", sec0(dvfsRun.Results.AvgWait), sec0(dvfsRun.Results.MaxWait))
	return chart, t, nil
}

// enlargedTable builds a (workload) × (size factor) table for the
// enlarged-system experiments at BSLDthreshold 2 and a fixed WQ mode.
func enlargedTable(s *Suite, title, note string, wq int, value func(c, base *Cell) string) (textplot.Table, error) {
	header := []string{"Workload"}
	for _, sf := range SizeFactors() {
		header = append(header, fmt.Sprintf("+%.0f%%", (sf-1)*100))
	}
	t := textplot.Table{Title: title, Header: header, Note: note}
	for _, w := range Workloads() {
		base, err := s.baselineCell(w)
		if err != nil {
			return t, err
		}
		row := []string{w}
		for _, sf := range SizeFactors() {
			c, err := s.Cell(Config{Workload: w, BSLDThr: 2, WQThr: wq, SizeFactor: sf})
			if err != nil {
				return t, err
			}
			row = append(row, value(c, base))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig7 reproduces Figure 7: normalized energies of enlarged systems with
// WQthreshold 0, relative to the original system without DVFS.
func Fig7(s *Suite, mode EnergyMode) (textplot.Table, error) {
	return enlargedTable(s,
		fmt.Sprintf("Figure 7 (%s): normalized energy of enlarged systems, WQ=0, BSLDthr=2", mode),
		"normalized to the original-size no-DVFS energy. Paper: computational energy decreases with size; idle=low has a minimum.",
		0,
		func(c, base *Cell) string { return pct(mode.energy(c) / mode.energy(base)) })
}

// Fig8 reproduces Figure 8: the same with no wait-queue limit.
func Fig8(s *Suite, mode EnergyMode) (textplot.Table, error) {
	return enlargedTable(s,
		fmt.Sprintf("Figure 8 (%s): normalized energy of enlarged systems, WQ=NO, BSLDthr=2", mode),
		"normalized to the original-size no-DVFS energy. Paper: 20% larger system can cut computational energy by >25%.",
		core.NoWQLimit,
		func(c, base *Cell) string { return pct(mode.energy(c) / mode.energy(base)) })
}

// Fig9 reproduces Figure 9: average BSLD for enlarged systems, for both
// WQ modes of the paper's experiment.
func Fig9(s *Suite) (textplot.Table, error) {
	header := []string{"Workload", "WQ"}
	for _, sf := range SizeFactors() {
		header = append(header, fmt.Sprintf("+%.0f%%", (sf-1)*100))
	}
	t := textplot.Table{
		Title:  "Figure 9: average BSLD for enlarged systems, BSLDthr=2",
		Header: header,
		Note:   "paper: an additional size increase always improves performance; SDSCBlue beats its no-DVFS baseline with only +10%.",
	}
	for _, w := range Workloads() {
		for _, wq := range []int{core.NoWQLimit, 0} {
			label := "NO"
			if wq == 0 {
				label = "0"
			}
			row := []string{w, label}
			for _, sf := range SizeFactors() {
				c, err := s.Cell(Config{Workload: w, BSLDThr: 2, WQThr: wq, SizeFactor: sf})
				if err != nil {
					return t, err
				}
				row = append(row, f2(c.Results.AvgBSLD))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Table3 reproduces Table 3: average wait time in seconds for the five
// scheduling/system configurations, with the paper's values interleaved.
func Table3(s *Suite) (textplot.Table, error) {
	t := textplot.Table{
		Title: "Table 3: average wait time (s)",
		Header: []string{"Workload",
			"orig-noDVFS", "paper", "origWQ0", "paper", "origWQNO", "paper",
			"+50%WQ0", "paper", "+50%WQNO", "paper"},
		Note: "DVFS columns use BSLDthr=2. paper columns: Table 3 of Etinski et al. 2010.",
	}
	for _, w := range Workloads() {
		ref := PaperTable3Wait[w]
		cells := make([]*Cell, 5)
		var err error
		if cells[0], err = s.baselineCell(w); err != nil {
			return t, err
		}
		if cells[1], err = s.Cell(Config{Workload: w, BSLDThr: 2, WQThr: 0, SizeFactor: 1}); err != nil {
			return t, err
		}
		if cells[2], err = s.Cell(Config{Workload: w, BSLDThr: 2, WQThr: core.NoWQLimit, SizeFactor: 1}); err != nil {
			return t, err
		}
		if cells[3], err = s.Cell(Config{Workload: w, BSLDThr: 2, WQThr: 0, SizeFactor: 1.5}); err != nil {
			return t, err
		}
		if cells[4], err = s.Cell(Config{Workload: w, BSLDThr: 2, WQThr: core.NoWQLimit, SizeFactor: 1.5}); err != nil {
			return t, err
		}
		row := []string{w}
		for i, c := range cells {
			row = append(row, sec0(c.Results.AvgWait), sec0(ref[i]))
		}
		t.AddRow(row...)
	}
	return t, nil
}
