package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/race"
	"scsq/internal/sqep"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metric_names.golden from this run")

// gateOp holds its input back until release closes, announcing on entered
// that the query is mid-flight.
type gateOp struct {
	sqep.Operator
	entered chan<- struct{}
	release <-chan struct{}
}

func (g *gateOp) Next() (sqep.Element, bool, error) {
	if g.entered != nil {
		close(g.entered)
		g.entered = nil
		<-g.release
	}
	return g.Operator.Next()
}

// buildQuery6 builds the paper's Query 6 under q: n generators on the
// back-end (urr('be')) each streaming count arrays of size bytes to its own
// counter on the BlueGene (psetrr()), one BlueGene process summing the merged
// counts, the client extracting it — 2n+1 SPs, n TCP and n MPI edges and the
// client's. gate, if non-nil, wraps the first generator.
func buildQuery6(tb testing.TB, e *Engine, q *Query, n, size, count int, gate func(sqep.Operator) sqep.Operator) *ClientStream {
	tb.Helper()
	var cs *ClientStream
	err := e.BuildAs(q, func() error {
		gens := make([]Subquery, n)
		for i := range gens {
			first := i == 0
			gens[i] = func(*PlanBuilder) (sqep.Operator, error) {
				var op sqep.Operator = sqep.NewGenArray(size, count)
				if first && gate != nil {
					op = gate(op)
				}
				return op, nil
			}
		}
		a, err := q.SPV(gens, hw.BackEnd, cndb.URR(e.coords[hw.BackEnd].DB()))
		if err != nil {
			return err
		}
		counters := make([]Subquery, n)
		for i := range counters {
			p := a[i]
			counters[i] = func(pb *PlanBuilder) (sqep.Operator, error) {
				in, err := pb.Extract(p)
				if err != nil {
					return nil, err
				}
				return sqep.NewStreamOf(sqep.NewCount(in)), nil
			}
		}
		psetrr, err := cndb.PsetRR(e.env)
		if err != nil {
			return err
		}
		b, err := q.SPV(counters, hw.BlueGene, psetrr)
		if err != nil {
			return err
		}
		c, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
			in, err := pb.Merge(b)
			if err != nil {
				return nil, err
			}
			return sqep.NewStreamOf(sqep.NewSum(in)), nil
		}, hw.BlueGene, nil)
		if err != nil {
			return err
		}
		cs, err = q.Extract(c)
		return err
	})
	if err != nil {
		tb.Fatalf("build query 6: %v", err)
	}
	return cs
}

// writeNames appends one section of the names golden: sorted "kind name"
// lines, with the deterministic values (counter totals, histogram counts)
// when the query is quiescent.
func writeNames(buf *bytes.Buffer, title string, s metrics.Snapshot, values bool) {
	fmt.Fprintf(buf, "# %s\n", title)
	for _, k := range s.CounterNames() {
		if values {
			fmt.Fprintf(buf, "counter %s %d\n", k, s.Counters[k])
		} else {
			fmt.Fprintf(buf, "counter %s\n", k)
		}
	}
	for _, k := range s.GaugeNames() {
		fmt.Fprintf(buf, "gauge %s\n", k)
	}
	for _, k := range s.HistogramNames() {
		if values {
			fmt.Fprintf(buf, "histogram %s %d\n", k, s.Histograms[k].Count)
		} else {
			fmt.Fprintf(buf, "histogram %s\n", k)
		}
	}
}

// TestMetricNamesGolden pins every metric name, kind and deterministic value
// a reader sees over a query's life — mid-flight, finished, retired — to
// testdata/metric_names.golden, which was written by this test on the commit
// before process blocks replaced per-name registration.
func TestMetricNamesGolden(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q, err := e.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	cs := buildQuery6(t, e, q, 8, 1000, 3, func(op sqep.Operator) sqep.Operator {
		return &gateOp{Operator: op, entered: entered, release: release}
	})
	done := make(chan error, 1)
	go func() {
		_, err := cs.Drain()
		done <- err
	}()
	<-entered
	var buf bytes.Buffer
	writeNames(&buf, "mid-flight", e.MetricsSnapshot(), false)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	snap := e.MetricsSnapshot()
	writeNames(&buf, "after finish", snap, true)
	writeNames(&buf, fmt.Sprintf("ForQuery(%q)", q.ID()), snap.ForQuery(q.ID()), true)
	fmt.Fprintf(&buf, "# SumCounters(\"link.bytes.mpi:\") %d\n", snap.SumCounters("link.bytes.mpi:"))
	q.Retire()
	snap = e.MetricsSnapshot()
	writeNames(&buf, "after retire", snap, true)
	fmt.Fprintf(&buf, "# SumCounters(\"link.bytes.mpi:\") %d\n", snap.SumCounters("link.bytes.mpi:"))

	path := filepath.Join("testdata", "metric_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metric names differ from %s (-update rewrites it):\n%s", path, buf.Bytes())
	}
}

// runSession6 takes one 17-SP Query 6 session through its whole life on e —
// build, drain, retire — as a served engine does per statement.
func runSession6(tb testing.TB, e *Engine) {
	q, err := e.BeginQuery()
	if err != nil {
		tb.Fatal(err)
	}
	cs := buildQuery6(tb, e, q, 8, 1000, 1, nil)
	if _, err := cs.Drain(); err != nil {
		tb.Fatalf("drain: %v", err)
	}
	q.Retire()
}

// BenchmarkSessionBuild is the control-plane cost of one session on a
// never-Reset engine: place and build 17 SPs, wire 17 links and 10 receivers,
// move ~30 frames, retire.
func BenchmarkSessionBuild(b *testing.B) {
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	runSession6(b, e) // the links' hardware-keyed blocks exist from here on
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSession6(b, e)
	}
}

// metricsAllocs returns how many objects the heap profile has seen allocated
// beneath a function of internal/metrics. The profile is published by a
// completed garbage collection, hence the two cycles.
func metricsAllocs() int64 {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
	var total int64
	for i := range recs {
		for frames := runtime.CallersFrames(recs[i].Stack()); ; {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "scsq/internal/metrics.") {
				total += recs[i].AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestSessionWiringAllocs is the control plane's allocation budget. A session
// of 17 SPs, 17 links and 10 receivers — built, drained, retired on a warm
// engine — stays under a committed ceiling (the commit before process blocks
// measured 1 256 here), and telemetry's share of it is one block per process
// and one object per histogram: 17 + 10 + 10, however many names a family
// renders — nothing per name, nothing per link that was dialed before.
func TestSessionWiringAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 5; i++ {
		runSession6(t, e)
	}
	const ceiling = 720
	got := testing.AllocsPerRun(20, func() { runSession6(t, e) })
	if got > ceiling {
		t.Errorf("a 17-SP session allocates %.0f objects, ceiling %d", got, ceiling)
	}

	// Every allocation is sampled from here on. The rate takes effect at each
	// P's next sample point, up to a few hundred kB away: the sessions before
	// the first reading use that up.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for i := 0; i < 40; i++ {
		runSession6(t, e)
	}
	const sessions = 20
	before := metricsAllocs()
	for i := 0; i < sessions; i++ {
		runSession6(t, e)
	}
	per := float64(metricsAllocs()-before) / sessions
	t.Logf("%.0f allocations per session, %.1f of them telemetry", got, per)
	if per < 27 || per > 40 {
		t.Errorf("telemetry allocates %.1f objects per session, want the 27 blocks and 10 histograms of its processes", per)
	}
}
