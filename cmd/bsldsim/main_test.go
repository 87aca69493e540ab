package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONReportsPinned runs the command on a small CTC segment and
// requires the -json report — scenario hash and every Results field —
// to match byte-for-byte the reports in testdata/want.
func TestJSONReportsPinned(t *testing.T) {
	cases := []struct {
		want string
		args []string
	}{
		{"default", nil},
		{"nodvfs", []string{"-nodvfs"}},
		{"cons_contiguous", []string{"-policy", "cons", "-select", "contiguous"}},
		{"stream", []string{"-stream"}},
		{"capfrac", []string{"-cap-frac", "0.7"}},
		{"config", []string{"-config", filepath.Join("testdata", "conservative.json")}},
	}
	for _, tc := range cases {
		t.Run(tc.want, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "want", tc.want+".json"))
			if err != nil {
				t.Fatal(err)
			}
			args := append([]string{"-workload", "CTC", "-jobs", "500", "-json"}, tc.args...)
			var stdout, stderr bytes.Buffer
			if code := bsldsim(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("report differs from testdata/want/%s.json:\ngot:\n%s\nwant:\n%s", tc.want, got, want)
			}
		})
	}
}

// TestBetaZeroRejected: an explicit β of zero is an error with the
// scenario layer's reason, never a silent run at the default β.
func TestBetaZeroRejected(t *testing.T) {
	for _, extra := range [][]string{nil, {"-nodvfs"}} {
		args := append([]string{"-workload", "CTC", "-jobs", "100", "-beta", "0"}, extra...)
		var stdout, stderr bytes.Buffer
		if code := bsldsim(args, &stdout, &stderr); code == 0 {
			t.Fatalf("%v: exit 0, report:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Beta must be a positive finite number") {
			t.Errorf("%v: stderr %q does not give the reason", args, stderr.String())
		}
	}
}
