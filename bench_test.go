package scsq_test

import (
	"math"
	"runtime"
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
				if pts, err = figs[0].Run(bench.Sizing{}); err != nil {
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

// BenchmarkP2PFrames is the p2p_frames workload's op on a warm engine:
// Figure 5's query — 20 arrays of 300 kB from BlueGene node 1 counted on
// node 0 — with 1 000 B MPI buffers, Query, Drain and Reset. Each of its
// ≈ 6 000 frames is marshaled, charged on the MPI link's route, committed
// by the kernel and received, so it reports the wall time and allocations
// per frame (link.frames.* of the engine's telemetry) besides the op's.
func BenchmarkP2PFrames(b *testing.B) {
	eng, err := scsq.New(scsq.WithMPIBufferBytes(1000))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	src := scsql.Figure5Query(300000, 20)
	op := func() {
		stream, err := eng.Query(src)
		if err != nil {
			b.Fatal(err)
		}
		els, err := stream.Drain()
		if err != nil || len(els) != 1 || els[0].Value != int64(20) {
			b.Fatalf("got %v, %v, want one count of 20", els, err)
		}
		if err := eng.Reset(); err != nil {
			b.Fatal(err)
		}
	}
	op()
	frames := func() float64 { return float64(eng.MetricsSnapshot().SumCounters("link.frames.")) }
	var before, after runtime.MemStats
	first := frames()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := frames() - first
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/frame")
}

// repeatQuery runs repeatQuery6's statement once the way a warm engine
// serves one statement after another — Exec, Drain, Reset — and checks its
// count.
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

// BenchmarkRepeatQuery is the loop the in-process benchmark workloads run:
// the same statement executed, drained and reset on one warm engine.
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
// nothing to regrow what the run before had sized. The ceilings are the
// objects and bytes measured once a repeated text came to be parsed once
// (Parse's cache hands back its statement), the bytes with 2 % of room: 75
// objects and 8.1 kB before, once a query that finished clean handed its
// processes (with their done latches), its receivers' inboxes and its edge
// list to the next; 116 objects and 20.1 kB before that, once a process's first subscriber, first wiring and id came to
// live in or beside its block, a recycled link kept its stage state, a
// planned placement walked a sequence the engine holds and gen_array kept
// its boxed template; 168 objects and 20.4 kB before that; 295 objects and 23.0 kB before the statement's AST
// came from per-statement slabs, each process and the drain were one
// allocation each, a recycled link kept its abort channel and an allocation
// sequence stopped copying its ids; 357 objects and 35.2 kB before a query that finished clean handed
// its receivers, senders and links to the next; 406 objects and 41.1 kB before wiring a stream
// allocated each record once, with every edge appended to one slice, a
// closure per stateless route stage and a map per subquery scope; 428
// objects before metric blocks came to be
// reused, RPs shared one cost model and the parser stopped building a token
// slice; 443 before BlueGene placement became a direct call on bgCC, 462
// through the poller's queue and reply channels; 628 before gen_array boxed
// its template once and Reset kept capacity.
func TestRepeatQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	eng, src := repeatQuery6(t)
	for i := 0; i < 5; i++ {
		repeatQuery(t, eng, src)
	}
	const ceiling = 63
	got := testing.AllocsPerRun(20, func() { repeatQuery(t, eng, src) })
	t.Logf("%.0f allocations per repeat", got)
	if got > ceiling {
		t.Errorf("a repeated Query 6 allocates %.0f objects, ceiling %d", got, ceiling)
	}
	// The least of five readings of 20 repeats each, at one P.
	const repeats, bytesCeiling = 20, 4_936 * 102 / 100
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		procs := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&before)
		for range repeats {
			repeatQuery(t, eng, src)
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/repeats)
	}
	t.Logf("%d bytes per repeat", least)
	if least > bytesCeiling {
		t.Errorf("a repeated Query 6 allocates %d bytes, ceiling %d", least, bytesCeiling)
	}
}
