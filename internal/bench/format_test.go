package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFig6() []Point {
	return []Point{
		{X: "1000", Series: "single", Unit: "Mbps", Value: 418.6, N: 5},
		{X: "1000", Series: "double", Unit: "Mbps", Value: 409.0, Stdev: 1.5, N: 5},
		{X: "10000", Series: "single", Unit: "Mbps", Value: 230.1, N: 5},
		{X: "10000", Series: "double", Unit: "Mbps", Value: 236.1, N: 5},
	}
}

func sampleFig15() []Point {
	return []Point{
		{X: "1", Series: "Query 1", Unit: "Mbps", Value: 391.7, N: 1},
		{X: "1", Series: "Query 5", Unit: "Mbps", Value: 391.7, N: 1},
		{X: "4", Series: "Query 1", Unit: "Mbps", Value: 281.4, N: 1},
		{X: "4", Series: "Query 5", Unit: "Mbps", Value: 886.4, N: 1},
	}
}

func table(t *testing.T, title string, pts []Point) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteTable(&sb, title, pts); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestWriteFigure6(t *testing.T) {
	out := table(t, "Figure 6", sampleFig6())
	for _, want := range []string{"Figure 6\n", "single (Mbps)", "1000", "418.6", "409.0±1.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Title, header, one line per x — and columns line up whatever "±" costs
	// in bytes.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if a, b := len([]rune(lines[2])), len([]rune(lines[3])); a != b {
		t.Errorf("rows are %d and %d columns wide:\n%s", a, b, out)
	}
}

// TestWriteFigure8 pins the pivot order: series become columns in order of
// first appearance, not sorted.
func TestWriteFigure8(t *testing.T) {
	var pts []Point
	for _, s := range []string{"seq/single", "seq/double", "bal/single", "bal/double"} {
		pts = append(pts, Point{X: "100000", Series: s, Unit: "Mbps", Value: 281.2, N: 1})
	}
	out := table(t, "Figure 8", pts)
	header := strings.Split(out, "\n")[1]
	if i, j := strings.Index(header, "seq/single"), strings.Index(header, "bal/double"); i < 0 || j < i {
		t.Errorf("series out of order in header %q", header)
	}
	if !strings.Contains(out, "281.2") {
		t.Errorf("table missing the value:\n%s", out)
	}
}

func TestWriteFigure15(t *testing.T) {
	out := table(t, "Figure 15", sampleFig15())
	for _, want := range []string{"Figure 15", "Query 1", "Query 5", "886.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-") {
		t.Errorf("complete table renders a gap:\n%s", out)
	}
	// Missing (x, series) combinations render as '-'.
	out = table(t, "Figure 15", append(sampleFig15(), Point{X: "4", Series: "Query 2", Unit: "Mbps", Value: 171.9, N: 1}))
	if !strings.Contains(out, "-") {
		t.Errorf("missing combinations should render as '-':\n%s", out)
	}
}

func TestCSVRenderers(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, Result{Figure: "6", Points: sampleFig6()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&sb, Result{Figure: "15", Points: sampleFig15()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 8 || lines[1] != "6,1000,double,Mbps,409.000,1.500,5" || lines[7] != "15,4,Query 5,Mbps,886.400,0.000,1" {
		t.Errorf("csv:\n%s", sb.String())
	}
	for _, l := range lines {
		if got, want := strings.Count(l, ","), strings.Count(CSVHeader, ","); got != want {
			t.Errorf("row %q has %d commas, header has %d", l, got, want)
		}
	}
}

func TestSampleString(t *testing.T) {
	if got := (Point{Value: 123.45, Stdev: 6.7, N: 5}).String(); got != "123.5±6.7" {
		t.Errorf("spread point = %q", got)
	}
	if got := (Point{Value: 204, N: 1}).String(); got != "204" {
		t.Errorf("count = %q", got)
	}
	if got := (Point{Value: 418.568, N: 5}).String(); got != "418.6" {
		t.Errorf("deterministic mean = %q", got)
	}
}

// TestReportShape round-trips the one JSON schema.
func TestReportShape(t *testing.T) {
	r := NewReport()
	if r.GOMAXPROCS <= 0 || r.GoVersion == "" {
		t.Fatalf("host envelope incomplete: %+v", r)
	}
	r.Figures = []Result{{Figure: "6", ElapsedMs: 1.5, Points: sampleFig6()}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"gomaxprocs"`, `"figures"`, `"elapsed_ms"`, `"points"`, `"stdev"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, buf.String())
		}
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Figures) != 1 || len(back.Figures[0].Points) != 4 || back.Figures[0].Points[1] != sampleFig6()[1] {
		t.Errorf("round trip lost points: %+v", back)
	}
}

// TestCommittedBenchFilesDecode holds every BENCH_*.json at the repository
// root to the one report schema, with a registry figure and points in it.
func TestCommittedBenchFilesDecode(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json at the repository root")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var r Report
		if err := dec.Decode(&r); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if r.GoVersion == "" || len(r.Figures) == 0 {
			t.Errorf("%s: no host envelope or no figures", file)
		}
		for _, f := range r.Figures {
			if _, err := Select(f.Figure); err != nil || f.Figure == "all" {
				t.Errorf("%s: figure %q is not in the registry", file, f.Figure)
			}
			if len(f.Points) == 0 {
				t.Errorf("%s: figure %s has no points", file, f.Figure)
			}
		}
	}
}
