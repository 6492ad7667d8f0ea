package bench

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"scsq"
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
		return scsql.MergeQuery([]int{1, 4}, 300_000, 20),
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

// golden returns the lines of testdata/figure<name>.csv — the output of
// `scsq-bench -fig <name> -csv`, `-tiny` for place — that the figure reads
// at sizing s: under Tiny, Figures 6 and 8 keep the header and their
// buffers from 3 kB up.
func golden(t *testing.T, name string, s Sizing) []byte {
	t.Helper()
	want, err := os.ReadFile("testdata/figure" + name + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	if name != "6" && name != "8" {
		return want
	}
	read := map[string]bool{}
	for _, buf := range s.bufs() {
		read[strconv.Itoa(buf)] = true
	}
	var out bytes.Buffer
	for i, line := range strings.SplitAfter(string(want), "\n") {
		if f := strings.Split(line, ","); i == 0 || len(f) > 1 && read[f[1]] {
			out.WriteString(line)
		}
	}
	return out.Bytes()
}

// goldenPoints parses the whole of testdata/figure<name>.csv.
func goldenPoints(t *testing.T, name string) []Point {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(golden(t, name, Sizing{}))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, 0, len(rows)-1)
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, Point{X: r[1], Series: r[2], Unit: r[3], Value: v})
	}
	return pts
}

// figureGolden compares figure name, read at Tiny, byte for byte with the
// golden's lines for the points it reads. The kernel grants every request
// in key order, so the schedule — and every reading — is a function of
// query, topology and cost model; any difference is a change to the cost
// model or to the order of charges.
func figureGolden(t *testing.T, name string) {
	s := Sizing{Tiny: true}
	if got, want := figureCSV(t, name, s), golden(t, name, s); !bytes.Equal(got, want) {
		reportDivergence(t, name, got, want)
	}
}

func TestFigure6Golden(t *testing.T)        { figureGolden(t, "6") }
func TestFigure8Golden(t *testing.T)        { figureGolden(t, "8") }
func TestFigure15Golden(t *testing.T)       { figureGolden(t, "15") }
func TestFigureAblationGolden(t *testing.T) { figureGolden(t, "ablation") }
func TestFigureUDPGolden(t *testing.T)      { figureGolden(t, "udp") }
func TestFigurePlaceGolden(t *testing.T)    { figureGolden(t, "place") }

// TestTimeTranslation is a metamorphic relation of the one timeline: every
// point of the Figure 8 and 15 sweeps at Tiny submitted twice as a session of
// one engine, Reset between the two, reads the same float64 bits both times,
// and that value is the golden's. The second read starts at a later kernel instant,
// where the first ended.
func TestTimeTranslation(t *testing.T) {
	s := Sizing{Tiny: true}
	for name, sweep := range map[string]func(Sizing) ([]sweepPoint, error){"8": sweep8, "15": sweep15} {
		t.Run("figure"+name, func(t *testing.T) {
			want := golden(t, name, s)
			sps, err := sweep(s)
			if err != nil {
				t.Fatal(err)
			}
			var pts []Point
			for _, sp := range sps {
				eng, err := scsq.New(sp.opts...)
				if err != nil {
					t.Fatal(err)
				}
				first, err := sp.read(eng)
				if err == nil {
					err = eng.Reset()
				}
				if err != nil {
					t.Fatal(err)
				}
				second, err := sp.read(eng)
				eng.Close()
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(first) != math.Float64bits(second) {
					t.Errorf("%s %s: read %v, then %v on the same engine", sp.x, sp.series, first, second)
				}
				pts = append(pts, reading(sp.x, sp.series, "Mbps", second))
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
// concurrent streams, concurrent tenants at every k and the placement
// planner included. Each subtest runs only its own figure, so
// -run TestFiguresByteReproducible/place runs the placement sweep alone.
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
		t.Run(f.Name, func(t *testing.T) {
			first := virtual(figureCSV(t, f.Name, Sizing{Tiny: true}))
			if len(first) == 0 {
				t.Skip("no virtual reading")
			}
			if again := virtual(figureCSV(t, f.Name, Sizing{Tiny: true})); !bytes.Equal(again, first) {
				reportDivergence(t, f.Name, again, first)
			}
		})
	}
}
