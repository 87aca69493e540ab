package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExtBoost(t *testing.T) {
	s := NewSuite(400)
	tb, err := ExtBoost(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		offE := parsePct(t, row[1])
		onE := parsePct(t, row[2])
		// Boost can only raise frequencies, so energy with boost is at
		// least energy without (within numerical noise on tiny traces).
		if onE < offE-1.0 {
			t.Errorf("%s: boost energy %v unexpectedly below static %v", row[0], onE, offE)
		}
	}
}

func TestExtPerJobBeta(t *testing.T) {
	s := NewSuite(400)
	tb, err := ExtPerJobBeta(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:3] {
			v := parsePct(t, cell)
			if v <= 0 || v > 100.001 {
				t.Errorf("energy %v out of (0,100]", v)
			}
		}
	}
}

func TestExtPowerDown(t *testing.T) {
	s := NewSuite(400)
	tb, err := ExtPowerDown(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		pd := parsePct(t, row[2])
		both := parsePct(t, row[3])
		if pd >= 100 {
			t.Errorf("%s: power-down saves nothing (%v%%)", row[0], pd)
		}
		// Combining DVFS with power-down must beat power-down alone:
		// execution energy shrinks, idle handling is identical.
		if both > pd+1.0 {
			t.Errorf("%s: combined %v%% worse than power-down alone %v%%", row[0], both, pd)
		}
	}
}

func TestRunExtensionsRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions in short mode")
	}
	s := NewSuite(300)
	var buf bytes.Buffer
	dir := t.TempDir()
	if err := RunExtensions(s, &buf, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dynamic frequency boost", "per-job β", "power-down", "power capping"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	checkCSVDigests(t, dir, "testdata/ext_csv.sha256")
}

// checkCSVDigests pins every CSV in dir byte-for-byte against a
// sha256sum-format manifest: each listed file must exist with the listed
// digest, and no unlisted ext_*.csv may appear.
func checkCSVDigests(t *testing.T, dir, manifest string) {
	t.Helper()
	f, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", manifest, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(dir, "ext_*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("wrote %d extension CSVs, manifest lists %d", len(got), len(want))
	}
	for _, path := range got {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if d := fmt.Sprintf("%x", sha256.Sum256(b)); d != want[name] {
			t.Errorf("%s: sha256 %s, pinned %q", name, d, want[name])
		}
	}
}

func TestExtLoadSweep(t *testing.T) {
	s := NewSuite(400)
	tb, err := ExtLoadSweep(s, "SDSCBlue")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Savings shrink (energy ratio grows) as load rises, end to end.
	first := parsePct(t, tb.Rows[0][2])
	last := parsePct(t, tb.Rows[len(tb.Rows)-1][2])
	if last < first {
		t.Errorf("energy ratio fell with load: %v -> %v", first, last)
	}
}

func TestExtEstimateQuality(t *testing.T) {
	s := NewSuite(400)
	tb, err := ExtEstimateQuality(s, "CTC")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		v := parsePct(t, row[1])
		if v <= 0 || v > 100.001 {
			t.Errorf("%s: energy %v out of range", row[0], v)
		}
	}
}

func TestExtLoadSweepUnknownWorkload(t *testing.T) {
	s := NewSuite(100)
	if _, err := ExtLoadSweep(s, "nosuch"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := ExtEstimateQuality(s, "nosuch"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestExtPolicyComparison(t *testing.T) {
	s := NewSuite(400)
	tb, err := ExtPolicyComparison(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:3] {
			v := parsePct(t, cell)
			if v <= 0 || v > 105 {
				t.Errorf("%s: energy %v out of range", row[0], v)
			}
		}
	}
}

func TestExtPowerCap(t *testing.T) {
	s := NewSuite(400)
	tb, err := ExtPowerCap(s, "CTC")
	if err != nil {
		t.Fatal(err)
	}
	// 2 thresholds × 4 cap levels (uncapped anchor + 3 caps).
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] == "none" {
			if row[4] != "0" {
				t.Errorf("uncapped row reports %s regears", row[4])
			}
			continue
		}
		var capf, draw float64
		if _, err := fmt.Sscanf(row[1], "%f", &capf); err != nil {
			t.Fatalf("cap cell %q: %v", row[1], err)
		}
		if _, err := fmt.Sscanf(row[2], "%f", &draw); err != nil {
			t.Fatalf("draw cell %q: %v", row[2], err)
		}
		// The controller holds the tracked draw near or under the cap
		// (small overshoot from discrete gear levels, plus cell rounding).
		if draw > capf*1.1+0.01 {
			t.Errorf("thr=%s cap=%v: avg draw %v above cap", row[0], capf, draw)
		}
	}
	if _, err := ExtPowerCap(s, "nosuch"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestExtSeedSensitivity(t *testing.T) {
	s := NewSuite(300)
	tb, err := ExtSeedSensitivity(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "±") {
				t.Errorf("cell %q missing ±", cell)
			}
		}
	}
}
