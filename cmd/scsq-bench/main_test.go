package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scsq/internal/bench"
)

// runOK runs the command and returns its standard output.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("scsq-bench %s: %v", strings.Join(args, " "), err)
	}
	return sb.String()
}

// TestEveryFigure runs each registry entry at smoke sizing through both
// renderers and the report: at least one point, one CSV header, and -out
// round-trips through the one report type.
func TestEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure; skipped in -short")
	}
	for _, f := range bench.Figures {
		t.Run(f.Name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "report.json")
			csv := runOK(t, "-fig", f.Name, "-tiny", "-repeats", "1", "-csv", "-out", out)
			lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
			if lines[0] != bench.CSVHeader || strings.Count(csv, bench.CSVHeader) != 1 {
				t.Fatalf("CSV does not start with exactly one header:\n%s", csv)
			}
			if len(lines) < 2 {
				t.Fatalf("figure %s printed no point", f.Name)
			}
			for _, l := range lines[1:] {
				if !strings.HasPrefix(l, f.Name+",") || strings.Count(l, ",") != strings.Count(bench.CSVHeader, ",") {
					t.Errorf("not a CSV row of figure %s: %q", f.Name, l)
				}
			}

			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var report bench.Report
			if err := json.Unmarshal(data, &report); err != nil {
				t.Fatalf("-out is not a report: %v", err)
			}
			if report.GoVersion == "" || len(report.Figures) != 1 || report.Figures[0].Figure != f.Name {
				t.Fatalf("report = %+v", report)
			}
			if got := len(report.Figures[0].Points); got != len(lines)-1 {
				t.Errorf("report holds %d points, CSV printed %d", got, len(lines)-1)
			}
		})
	}
}

// TestUnknownFigureIsAnError: -fig bogus used to exit 0 printing nothing.
func TestUnknownFigureIsAnError(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-fig", "bogus"}, &sb)
	if err == nil {
		t.Fatalf("-fig bogus succeeded, printing %q", sb.String())
	}
	for _, name := range bench.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list figure %s", err, name)
		}
	}
	if sb.Len() != 0 {
		t.Errorf("-fig bogus printed %q", sb.String())
	}
}

// TestAllCSVIsOnlyCSV: `-fig all -csv` used to print text tables for five of
// the ten figures.
func TestAllCSVIsOnlyCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure; skipped in -short")
	}
	csv := runOK(t, "-fig", "all", "-tiny", "-repeats", "1", "-csv")
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != bench.CSVHeader {
		t.Fatalf("first line %q, want the header", lines[0])
	}
	seen := map[string]bool{}
	for _, l := range lines[1:] {
		fields := strings.Split(l, ",")
		if len(fields) != 7 {
			t.Fatalf("not a CSV row: %q", l)
		}
		seen[fields[0]] = true
	}
	for _, name := range bench.Names() {
		if !seen[name] {
			t.Errorf("figure %s has no row", name)
		}
	}
}

// TestNothingIsWrittenWithoutOut: a bare run used to overwrite the committed
// BENCH_*.json of the working directory.
func TestNothingIsWrittenWithoutOut(t *testing.T) {
	before, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	text := runOK(t, "-fig", "soak", "-tiny")
	if !strings.Contains(text, "Chaos soak") || !strings.Contains(text, "sessions (count)") {
		t.Errorf("text table:\n%s", text)
	}
	after, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("run changed the working directory from %v to %v", before, after)
	}
}

func TestTelemetryFiles(t *testing.T) {
	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	out := runOK(t, "-metrics", metrics, "-trace", trace)
	if !strings.HasPrefix(out, "telemetry: buf=65536 ") {
		t.Errorf("summary line: %q", out)
	}
	for _, file := range []string{metrics, trace} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) || len(data) < 100 {
			t.Errorf("%s is not a JSON document (%d bytes)", file, len(data))
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-perf"},
		{"-soak-out", "x.json"},
		{"-fig", "6", "-repeats", "0"},
		{"-fig", "soak", "-tiny", "-out", filepath.Join(t.TempDir(), "no", "such", "dir.json")},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
