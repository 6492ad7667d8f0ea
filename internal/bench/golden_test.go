package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/core"
	"scsq/internal/scsql"
)

// figureCSV runs the registry entry name and renders it as
// `scsq-bench -fig <name> -csv` does.
func figureCSV(t *testing.T, name string, s Sizing) []byte {
	t.Helper()
	figs, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := figs[0].Run(s)
	if err != nil {
		t.Fatalf("figure %s: %v", name, err)
	}
	var out bytes.Buffer
	out.WriteString(CSVHeader + "\n")
	if err := WriteCSV(&out, Result{Figure: name, Points: pts}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// divergencePoints are, per figure, the point whose two runs
// firstGrantDivergence compares when the figure stops reproducing: one
// where concurrent streams share a device.
var divergencePoints = map[string]func(t *testing.T) (string, []core.Option){
	"8": func(*testing.T) (string, []core.Option) {
		return scsql.MergeQuery(1, 4, 300_000, 20),
			[]core.Option{core.Config{MPIBufferBytes: 30_000, Buffering: carrier.SingleBuffered}}
	},
	"15": func(t *testing.T) (string, []core.Option) {
		// Query 5 at n=2: its streams share the back-end node's CPU.
		src, err := scsql.InboundQuery(5, 2, paperArrayBytes, paperArrayCount)
		if err != nil {
			t.Fatal(err)
		}
		return src, nil
	},
}

// reportDivergence names the first line where got and want differ, and
// where two runs of the figure's divergence point first part.
func reportDivergence(t *testing.T, name string, got, want []byte) {
	t.Helper()
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("figure %s, line %d: got %q, want %q", name, i+1, gl, wl)
			break
		}
	}
	locate := divergencePoints[name]
	if locate == nil {
		locate = divergencePoints["8"]
	}
	src, opts := locate(t)
	d, err := firstGrantDivergence(src, opts...)
	switch {
	case err != nil:
		t.Errorf("firstGrantDivergence: %v", err)
	case d == "":
		t.Log("firstGrantDivergence: two runs of the divergence point grant identical schedules")
	default:
		t.Errorf("firstGrantDivergence: two runs of the divergence point first part at %s", d)
	}
}

// figureGolden compares figure name, one run per point, byte for byte with
// testdata/figure<name>.csv: the output of `scsq-bench -fig <name> -repeats 1
// -csv`. The kernel grants every request in key order, so the schedule — and
// every reading — is a function of query, topology and cost model; any
// difference is a change to the cost model or to the order of charges.
func figureGolden(t *testing.T, name string) {
	want, err := os.ReadFile("testdata/figure" + name + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	if got := figureCSV(t, name, Sizing{Repeats: 1}); !bytes.Equal(got, want) {
		reportDivergence(t, name, got, want)
	}
}

func TestFigure8Golden(t *testing.T)  { figureGolden(t, "8") }
func TestFigure15Golden(t *testing.T) { figureGolden(t, "15") }

// TestTimeTranslation is a metamorphic relation of the one timeline: every
// point of Figures 8 and 15 read twice on one engine, Reset between the two,
// reads the same float64 bits both times (repeatQuery; summarize reports
// identical runs with stdev 0), and that value is the golden's. The second
// read starts at a later kernel instant, where the first ended.
func TestTimeTranslation(t *testing.T) {
	for _, name := range []string{"8", "15"} {
		t.Run("figure"+name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/figure" + name + ".csv")
			if err != nil {
				t.Fatal(err)
			}
			figs, err := Select(name)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := figs[0].Run(Sizing{Repeats: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				if p.Stdev != 0 || p.N != 2 {
					t.Errorf("%s %s: two reads spread by %v (n=%d)", p.X, p.Series, p.Stdev, p.N)
				}
				pts[i].N = 1
			}
			got := bytes.NewBufferString(CSVHeader + "\n")
			if err := WriteCSV(got, Result{Figure: name, Points: pts}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				reportDivergence(t, name, got.Bytes(), want)
			}
		})
	}
}

// virtualUnits are the units of readings taken on the virtual clock (and
// ratios of them); every other unit is a wall-clock reading or a count.
var virtualUnits = map[string]bool{"Mbps": true, "%": true}

// TestFiguresByteReproducible: every registry entry with a virtual reading,
// run twice at -tiny, renders those readings byte for byte the same —
// concurrent streams, concurrent tenants and the placement planner included.
func TestFiguresByteReproducible(t *testing.T) {
	virtual := func(csv []byte) []byte {
		var out bytes.Buffer
		for _, line := range strings.SplitAfter(string(csv), "\n") {
			if f := strings.Split(line, ","); len(f) > 3 && virtualUnits[f[3]] {
				out.WriteString(line)
			}
		}
		return out.Bytes()
	}
	for _, f := range Figures {
		first := virtual(figureCSV(t, f.Name, Sizing{Tiny: true, Repeats: 1}))
		if len(first) == 0 {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			if again := virtual(figureCSV(t, f.Name, Sizing{Tiny: true, Repeats: 1})); !bytes.Equal(again, first) {
				reportDivergence(t, f.Name, again, first)
			}
		})
	}
}
