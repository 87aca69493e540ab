// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (Tables 1–3, Figures 3–9), runs the
// underlying simulation grid in parallel with caching, and renders the
// same rows and series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// Config identifies one simulation cell of the evaluation grid.
type Config struct {
	Workload string // preset name (CTC, SDSC, ...)
	// BSLDThr is the BSLD threshold; 0 selects the no-DVFS baseline.
	BSLDThr float64
	// WQThr is the wait-queue threshold (core.NoWQLimit = "NO LIMIT");
	// ignored for baselines.
	WQThr int
	// SizeFactor scales the machine (1.0 = original system size).
	SizeFactor float64
}

// baseline reports whether the cell runs without DVFS.
func (c Config) baseline() bool { return c.BSLDThr == 0 }

// label is the column caption used in tables ("1.5/4", "2/NO", "noDVFS");
// it shares the sweep cell caption so tables and CSV rows never diverge.
func (c Config) label() string {
	return scenario.PolicyConfig{BSLDThr: c.BSLDThr, WQThr: c.WQThr}.Label()
}

// Cell is one simulated grid point.
type Cell struct {
	Config
	Results metrics.Results
	// WaitSeries supports the Figure 6 trace; retained for every cell.
	WaitSeries []metrics.WaitPoint
	CPUs       int
}

// Suite lazily runs and caches grid cells. It is safe for concurrent use.
type Suite struct {
	jobs   int  // trace length (paper: 5000); smaller for quick tests
	stream bool // stream workloads per cell instead of caching traces

	// comp compiles cells into scenarios; its arena cache shares each
	// workload (generated once when materializing, one stream prototype
	// cloned per run when streaming) across every cell of the suite.
	comp scenario.Compiler

	mu     sync.Mutex
	traces map[string]*workload.Trace // extension experiments' materialized copies
	cells  map[Config]*Cell
}

// NewSuite returns a suite simulating jobs-long trace segments; jobs <= 0
// selects the paper's 5000.
func NewSuite(jobs int) *Suite {
	if jobs <= 0 {
		jobs = wgen.StandardJobs
	}
	return &Suite{
		jobs:   jobs,
		traces: make(map[string]*workload.Trace),
		cells:  make(map[Config]*Cell),
	}
}

// NewStreamingSuite returns a suite whose cells stream their workloads:
// every simulation gets an independent lazily-generating source instead
// of a shared cached trace, so the suite's memory is bounded by cell
// results, not trace length. Results are bit-identical to NewSuite's.
func NewStreamingSuite(jobs int) *Suite {
	s := NewSuite(jobs)
	s.stream = true
	return s
}

// Jobs returns the configured trace segment length.
func (s *Suite) Jobs() int { return s.jobs }

// trace returns (generating once) the workload trace for a preset.
func (s *Suite) trace(name string) (*workload.Trace, error) {
	s.mu.Lock()
	tr, ok := s.traces[name]
	s.mu.Unlock()
	if ok {
		return tr, nil
	}
	model, err := wgen.Preset(name)
	if err != nil {
		return nil, err
	}
	model.Jobs = s.jobs
	tr, err = wgen.Generate(model)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.traces[name] = tr
	s.mu.Unlock()
	return tr, nil
}

// Cell runs (or returns the cached) simulation for cfg.
func (s *Suite) Cell(cfg Config) (*Cell, error) {
	if cfg.SizeFactor == 0 {
		cfg.SizeFactor = 1
	}
	s.mu.Lock()
	if c, ok := s.cells[cfg]; ok {
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()

	sc, err := s.comp.Compile(scenario.Spec{
		Workload:      cfg.Workload,
		Jobs:          s.jobs,
		Materialize:   !s.stream,
		Policy:        scenario.PolicyConfig{BSLDThr: cfg.BSLDThr, WQThr: cfg.WQThr},
		SizeFactor:    cfg.SizeFactor,
		KeepCollector: true,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: cell %+v: %w", cfg, err)
	}
	out, err := sc.Execute()
	if err != nil {
		return nil, fmt.Errorf("experiments: cell %+v: %w", cfg, err)
	}
	cell := &Cell{
		Config:     cfg,
		Results:    out.Results,
		WaitSeries: out.Collector.WaitSeries(),
		CPUs:       out.CPUs,
	}
	s.mu.Lock()
	// Another goroutine may have raced us; keep the first stored cell so
	// callers always observe one canonical result (runs are deterministic
	// anyway).
	if prior, ok := s.cells[cfg]; ok {
		cell = prior
	} else {
		s.cells[cfg] = cell
	}
	s.mu.Unlock()
	return cell, nil
}

// Prefetch runs the given cells across the sweep pool (`workers`
// goroutines; <=0 selects all cores), returning the first error. It warms
// the cache so subsequent experiment builders are pure formatting.
func (s *Suite) Prefetch(cfgs []Config, workers int) error {
	// Deduplicate so each distinct simulation runs once.
	seen := make(map[Config]bool)
	var uniq []Config
	for _, c := range cfgs {
		if c.SizeFactor == 0 {
			c.SizeFactor = 1
		}
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
		}
	}
	// No serial trace warming is needed: the compiler's arena cache
	// resolves each distinct workload exactly once even when concurrent
	// cells race on it.
	pool := &sweep.Pool{Workers: workers}
	return pool.ForEach(context.Background(), len(uniq), func(i int) error {
		_, err := s.Cell(uniq[i])
		return err
	})
}

// Workloads are the five paper traces in presentation order.
func Workloads() []string {
	return []string{"CTC", "SDSC", "SDSCBlue", "LLNLThunder", "LLNLAtlas"}
}

// BSLDThresholds are the paper's BSLDthreshold values.
func BSLDThresholds() []float64 { return []float64{1.5, 2, 3} }

// WQThresholds are the paper's WQthreshold values (0, 4, 16, NO LIMIT).
func WQThresholds() []int { return []int{0, 4, 16, core.NoWQLimit} }

// SizeFactors are the enlarged-system scales of Figures 7–9: the original
// size plus 10%, 20%, 50%, 75%, 100% and 125% increases.
func SizeFactors() []float64 { return []float64{1.0, 1.1, 1.2, 1.5, 1.75, 2.0, 2.25} }

// GridConfigs enumerates every cell the full reproduction needs — the
// baselines plus the two declarative paper sweeps — so one Prefetch call
// warms everything.
func GridConfigs() []Config {
	var cfgs []Config
	// Baselines (Table 1, normalization denominators).
	for _, w := range Workloads() {
		cfgs = append(cfgs, Config{Workload: w, SizeFactor: 1})
	}
	// Figures 3–5 grid, then Figures 7–9 / Table 3 enlarged systems.
	cfgs = append(cfgs, configsOf(PaperGrid())...)
	cfgs = append(cfgs, configsOf(EnlargedGrid())...)
	return cfgs
}
