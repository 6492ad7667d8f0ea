package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"unicode/utf8"
)

// WriteTable renders one figure as a text table pivoted on its points: one
// row per x, one column per series (both in order of first appearance), "-"
// where a series has no point at an x.
func WriteTable(w io.Writer, title string, pts []Point) error {
	var xs, series []string
	cells := make(map[[2]string]string, len(pts))
	units := make(map[string]string)
	seenX := make(map[string]bool)
	for _, p := range pts {
		if _, ok := units[p.Series]; !ok {
			units[p.Series] = p.Unit
			series = append(series, p.Series)
		}
		if !seenX[p.X] {
			seenX[p.X] = true
			xs = append(xs, p.X)
		}
		cells[[2]string{p.X, p.Series}] = p.String()
	}
	table := make([][]string, 0, len(xs)+1)
	header := []string{"x"}
	for _, s := range series {
		header = append(header, fmt.Sprintf("%s (%s)", s, units[s]))
	}
	table = append(table, header)
	for _, x := range xs {
		row := []string{x}
		for _, s := range series {
			cell, ok := cells[[2]string{x, s}]
			if !ok {
				cell = "-"
			}
			row = append(row, cell)
		}
		table = append(table, row)
	}
	widths := make([]int, len(header))
	for _, row := range table {
		for i, cell := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	var sb strings.Builder
	sb.WriteString(title + "\n")
	for _, row := range table {
		fmt.Fprintf(&sb, "%-*s", widths[0], row[0])
		for i, cell := range row[1:] {
			fmt.Fprintf(&sb, "  %*s", widths[i+1], cell)
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// CSVHeader is the one header of the long-form CSV; WriteCSV emits rows
// only, so any number of figures share it.
const CSVHeader = "figure,x,series,unit,value,stdev,n"

// WriteCSV renders one figure's points as long-form CSV rows under
// CSVHeader.
func WriteCSV(w io.Writer, r Result) error {
	var sb strings.Builder
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%s,%s,%s,%s,%.3f,%.3f,%d\n", r.Figure, p.X, p.Series, p.Unit, p.Value, p.Stdev, p.N)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Result is one figure's outcome inside a Report.
type Result struct {
	Figure    string  `json:"figure"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Points    []Point `json:"points"`
}

// Report is the one JSON document of the harness (`scsq-bench -out`, the
// committed BENCH_*.json): the host the numbers were taken on — speedup
// ratios on a single-core container mean something different than on a
// 32-way box — and every figure that ran.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model,omitempty"`
	Figures    []Result `json:"figures"`
}

// NewReport returns a report with the host envelope filled in.
func NewReport() Report {
	return Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel best-effort reads the CPU model name from /proc/cpuinfo (Linux).
// Empty when unavailable; the field is informational only.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// WriteJSON emits the report as indented JSON.
func WriteJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
