package scsq_test

import (
	"strings"
	"testing"

	"scsq"
	"scsq/internal/bench"
	"scsq/internal/marshal"
	"scsq/internal/race"
	"scsq/internal/scsql"
	"scsq/internal/torus"
)

// BenchmarkPaperFigures regenerates the paper's Figures 6, 8 and 15 through
// the same registry as cmd/scsq-bench, one sub-benchmark per figure, and
// reports every point of the figure as a custom metric named
// "<x>/<series>-<unit>". The absolute numbers come from the calibrated
// virtual-time hardware model; what matters is the shape (see
// EXPERIMENTS.md).
func BenchmarkPaperFigures(b *testing.B) {
	for _, name := range []string{"6", "8", "15"} {
		figs, err := bench.Select(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("fig="+name, func(b *testing.B) {
			var pts []bench.Point
			for i := 0; i < b.N; i++ {
				if pts, err = figs[0].Run(bench.Sizing{Repeats: 1}); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pts {
				b.ReportMetric(p.Value, strings.ReplaceAll(p.X+"/"+p.Series, " ", "")+"-"+p.Unit)
			}
		})
	}
}

// BenchmarkMarshalArray measures the wire-format encoder on the paper's
// array payloads.
func BenchmarkMarshalArray(b *testing.B) {
	arr := make([]float64, 3_000_000/8)
	buf := make([]byte, 0, 3_100_000)
	b.SetBytes(3_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = marshal.Append(buf[:0], arr)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemarshalArray measures the wire-format decoder.
func BenchmarkDemarshalArray(b *testing.B) {
	arr := make([]float64, 3_000_000/8)
	buf, err := marshal.Append(nil, arr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := marshal.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTorusRoute measures dimension-ordered route computation.
func BenchmarkTorusRoute(b *testing.B) {
	tor, err := torus.New(8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tor.Route(i%512, (i*37)%512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEndToEnd measures a full engine round trip of the paper's
// Figure 5 query at a small workload.
func BenchmarkQueryEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := scsq.New(scsq.WithMPIBufferBytes(10_000))
		if err != nil {
			b.Fatal(err)
		}
		stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(30000,10), 'bg', 1);`)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stream.One(); err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
}

// repeatQuery runs repeatQuery6's statement once the way a figure point
// repeats it — Exec, Drain, Reset on one engine — and checks its count.
func repeatQuery(tb testing.TB, eng *scsq.Engine, src string) {
	res, err := eng.Exec(src)
	if err != nil {
		tb.Fatal(err)
	}
	els, err := res.Stream.Drain()
	if err != nil {
		tb.Fatal(err)
	}
	if len(els) != 1 || els[0].Value != int64(16) {
		tb.Fatalf("got %v, want one count of 16", els)
	}
	if err := eng.Reset(); err != nil {
		tb.Fatal(err)
	}
}

// repeatQuery6 is a small Query 6: four back-end producers of four 1 000 B
// gen_arrays each, every stream counted on a BlueGene node of its own and
// the counts summed.
func repeatQuery6(tb testing.TB) (*scsq.Engine, string) {
	tb.Helper()
	src, err := scsql.InboundQuery(6, 4, 1000, 4)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := scsq.New()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	return eng, src
}

// BenchmarkRepeatQuery is the loop every figure point and the in-process
// benchmark workloads run: the same statement executed, drained and reset on
// one warm engine.
func BenchmarkRepeatQuery(b *testing.B) {
	eng, src := repeatQuery6(b)
	repeatQuery(b, eng, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repeatQuery(b, eng, src)
	}
}

// TestRepeatQueryAllocs pins what a repeated query allocates on a warm
// engine: what building the query takes, nothing per streamed element, and
// nothing to regrow what the run before had sized. The ceiling sits just
// above the 469 measured when each gen_array started boxing its template
// once and Reset started keeping capacity (628 before).
func TestRepeatQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	eng, src := repeatQuery6(t)
	for i := 0; i < 5; i++ {
		repeatQuery(t, eng, src)
	}
	const ceiling = 480
	got := testing.AllocsPerRun(20, func() { repeatQuery(t, eng, src) })
	t.Logf("%.0f allocations per repeat", got)
	if got > ceiling {
		t.Errorf("a repeated Query 6 allocates %.0f objects, ceiling %d", got, ceiling)
	}
}
