// Command sweep runs a parameter sweep over the simulator: a grid of
// traces × policies × machine sizes × scheduling options, executed in
// parallel across CPU cores with deterministic, grid-ordered output.
//
// The grid comes either from a JSON file (-grid sweep.json, "-" = stdin)
// matching sweep.Grid, or from axis flags:
//
//	sweep -traces CTC,SDSC -bsld 1.5,2,3 -wq 0,4,16,NO -sizes 1,1.2 -format csv
//	sweep -traces CTC -bsld 2 -caps 0,0.85,0.7 -format csv
//
// Trace names resolve to wgen presets (CTC, SDSC, SDSCBlue, LLNLThunder,
// LLNLAtlas); names ending in .swf are parsed as SWF trace files. Results
// stream to stdout as CSV (default) or a JSON array; rows are always in
// grid order no matter how many workers run.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/wgen"
	"repro/internal/workload"
)

func main() {
	var (
		gridPath   = flag.String("grid", "", "JSON grid file (\"-\" reads stdin); overrides axis flags")
		traces     = flag.String("traces", "", "comma-separated trace names (presets or .swf files)")
		bsld       = flag.String("bsld", "", "comma-separated BSLD thresholds (0 = no-DVFS baseline)")
		wq         = flag.String("wq", "NO", "comma-separated wait-queue thresholds (numbers or NO)")
		sizes      = flag.String("sizes", "", "comma-separated machine size factors (default 1)")
		cpus       = flag.String("cpus", "", "comma-separated machine size overrides")
		variants   = flag.String("variants", "", "comma-separated base policies: easy,fcfs,conservative")
		selections = flag.String("selections", "", "comma-separated selections: firstfit,contiguous,nextfit")
		orders     = flag.String("orders", "", "comma-separated queue orders: fcfs,sjf")
		res        = flag.String("res", "", "comma-separated EASY reservation depths")
		caps       = flag.String("caps", "", "comma-separated power-cap fractions of peak draw (0 = uncapped)")
		jobs       = flag.Int("jobs", wgen.StandardJobs, "trace segment length for presets; 0 = the model's native length (5000 for the paper presets, 1000000 for Million)")
		stream     = flag.Bool("stream", false, "give every run an independent streaming source (presets regenerate lazily, SWF files are read incrementally) instead of sharing one materialized trace")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = all cores)")
		format     = flag.String("format", "csv", "output format: csv or json")
		progress   = flag.Bool("progress", false, "print per-run progress to stderr")
	)
	flag.Parse()

	grid, err := buildGrid(*gridPath, *traces, *bsld, *wq, *sizes, *cpus,
		*variants, *selections, *orders, *res, *caps)
	if err != nil {
		fatal(err)
	}
	// Names resolve through the scenario compiler's shared arena cache:
	// each preset generates (or each SWF file parses) exactly once and
	// every grid cell over it executes against the shared immutable
	// result.
	resolver := &sweep.Resolver{Jobs: *jobs, Materialize: true}
	if *stream {
		// One independent source per run: workers regenerate instead of
		// sharing a materialized slice. For wgen presets the results are
		// byte-identical to the materialized path; for .swf files the
		// incremental reader keeps file order where the materialized
		// parser tie-breaks equal submit times by job ID, so logs with
		// out-of-ID-order ties may schedule (correctly but) differently.
		resolver = &sweep.Resolver{Source: sourceLoader(*jobs)}
	}
	pool := &sweep.Pool{Workers: *workers}
	if *progress {
		pool.OnProgress = func(done, total int, r sweep.Result) {
			status := "ok"
			if r.Err != nil {
				status = r.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s: %s\n", done, total, r.Point.Label(), status)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := sweep.Sweep(ctx, grid, resolver, pool)
	if err != nil && results == nil {
		fatal(err)
	}
	switch *format {
	case "csv":
		err = writeCSV(os.Stdout, results)
	case "json":
		err = writeJSON(os.Stdout, results)
	default:
		err = fmt.Errorf("unknown format %q (csv, json)", *format)
	}
	if err != nil {
		fatal(err)
	}
	if ctx.Err() != nil {
		fatal(fmt.Errorf("sweep interrupted: %w", ctx.Err()))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

// sourceLoader resolves trace names to independent streaming sources:
// wgen presets generate lazily per run, SWF files are read incrementally.
func sourceLoader(jobs int) func(name string) (workload.JobSource, error) {
	return func(name string) (workload.JobSource, error) {
		return wgen.ResolveSource(name, 0, jobs, workload.SWFFilter{})
	}
}

// buildGrid assembles the sweep grid from the JSON file or the axis flags.
func buildGrid(gridPath, traces, bsld, wq, sizes, cpus, variants, selections, orders, res, caps string) (sweep.Grid, error) {
	var g sweep.Grid
	if gridPath != "" {
		var r io.Reader = os.Stdin
		if gridPath != "-" {
			f, err := os.Open(gridPath)
			if err != nil {
				return g, err
			}
			defer f.Close()
			r = f
		}
		dec := json.NewDecoder(r)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&g); err != nil {
			return g, fmt.Errorf("grid %s: %w", gridPath, err)
		}
		return g, nil
	}
	g.Traces = splitList(traces)
	thresholds, err := parseFloats(bsld)
	if err != nil {
		return g, fmt.Errorf("-bsld: %w", err)
	}
	wqs, err := parseWQs(wq)
	if err != nil {
		return g, fmt.Errorf("-wq: %w", err)
	}
	for _, thr := range thresholds {
		if thr == 0 {
			g.Policies = append(g.Policies, scenario.PolicyConfig{})
			continue
		}
		for _, w := range wqs {
			g.Policies = append(g.Policies, scenario.PolicyConfig{BSLDThr: thr, WQThr: w})
		}
	}
	if g.SizeFactors, err = parseFloats(sizes); err != nil {
		return g, fmt.Errorf("-sizes: %w", err)
	}
	if g.CPUs, err = parseInts(cpus); err != nil {
		return g, fmt.Errorf("-cpus: %w", err)
	}
	g.Variants = splitList(variants)
	g.Selections = splitList(selections)
	g.Orders = splitList(orders)
	if g.Reservations, err = parseInts(res); err != nil {
		return g, fmt.Errorf("-res: %w", err)
	}
	if g.CapFracs, err = parseFloats(caps); err != nil {
		return g, fmt.Errorf("-caps: %w", err)
	}
	return g, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseWQs accepts numbers plus the paper's "NO" (no wait-queue limit).
func parseWQs(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		if strings.EqualFold(p, "NO") {
			out = append(out, core.NoWQLimit)
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// csvHeader is the fixed column set of the CSV output.
var csvHeader = []string{
	"index", "trace", "policy", "size_factor", "cpus_override", "variant",
	"selection", "order", "reservations", "cap_frac", "cpus", "jobs", "avg_bsld",
	"avg_wait_s", "max_wait_s", "reduced_jobs", "comp_energy",
	"idle_energy", "total_energy_low", "utilization", "error",
}

func writeCSV(w io.Writer, results []sweep.Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range results {
		p, m := r.Point, r.Outcome.Results
		errStr := ""
		if r.Err != nil {
			errStr = r.Err.Error()
			m = metrics.Results{}
		}
		row := []string{
			strconv.Itoa(p.Index), p.Trace, p.Policy.Label(), f(p.SizeFactor),
			strconv.Itoa(p.CPUs), p.Variant, p.Selection, p.Order,
			strconv.Itoa(p.Reservations), f(p.CapFrac), strconv.Itoa(r.Outcome.CPUs),
			strconv.Itoa(m.Jobs), f(m.AvgBSLD), f(m.AvgWait), f(m.MaxWait),
			strconv.Itoa(m.ReducedJobs), f(m.CompEnergy), f(m.IdleEnergy),
			f(m.TotalEnergyLow), f(m.Utilization), errStr,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonRow is the JSON output shape: the point, the metrics and the policy
// name actually used, plus any per-run error.
type jsonRow struct {
	Point   sweep.Point     `json:"point"`
	CPUs    int             `json:"cpus,omitempty"`
	Policy  string          `json:"policy,omitempty"`
	Results json.RawMessage `json:"results,omitempty"`
	Error   string          `json:"error,omitempty"`
}

func writeJSON(w io.Writer, results []sweep.Result) error {
	rows := make([]jsonRow, len(results))
	for i, r := range results {
		rows[i] = jsonRow{Point: r.Point}
		if r.Err != nil {
			rows[i].Error = r.Err.Error()
			continue
		}
		raw, err := json.Marshal(r.Outcome.Results)
		if err != nil {
			return err
		}
		rows[i].CPUs = r.Outcome.CPUs
		rows[i].Policy = r.Outcome.Policy
		rows[i].Results = raw
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
