package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/race"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metric_names.golden from this run")

// gateOp holds its input back until release closes, announcing on entered
// that the query is mid-flight.
type gateOp struct {
	sqep.Operator
	entered chan<- struct{}
	release <-chan struct{}
	agent   *vtime.Agent
}

func (g *gateOp) Open(ctx *sqep.Ctx) error {
	g.agent = ctx.Agent
	return g.Operator.Open(ctx)
}

func (g *gateOp) Next() (sqep.Element, bool, error) {
	if g.entered != nil {
		close(g.entered)
		g.entered = nil
		vtime.Wait(g.agent, vtime.Tick, g.release, nil)
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
		a, err := spv(q, gens, hw.BackEnd, cndb.URR(e.coords[hw.BackEnd].DB()))
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
		b, err := spv(q, counters, hw.BlueGene, psetrr)
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

// runSession6 takes one Query 6 session of n streams (2n + 1 SPs) through
// its whole life on e — build, drain, retire — as a served engine does per
// statement.
func runSession6(tb testing.TB, e *Engine, n int) {
	q, err := e.BeginQuery()
	if err != nil {
		tb.Fatal(err)
	}
	cs := buildQuery6(tb, e, q, n, 1000, 1, nil)
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
	runSession6(b, e, 8) // the links' hardware-keyed blocks exist from here on
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSession6(b, e, 8)
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
// engine — stays under a committed ceiling, the 69 measured once a session
// that finished clean handed its processes, its receivers' inboxes and its
// edge list to the next (142 before, once a process's first subscriber,
// first wiring and id came to live in or beside its block, a recycled link
// kept its stage state, a planned placement walked a sequence the engine
// holds and gen_array kept its boxed template; 230 before that, once the
// statement's AST came from per-statement slabs, each process (its handle,
// RP, agent and plan builder) and the drain's agent and builder were one
// allocation each, a recycled link kept its abort channel
// and an allocation sequence stopped copying its ids; 304 before, once a session
// that finished clean handed its receivers, senders and links to the next;
// 414 before that, once wiring a stream allocated each record once; 456 before
// that, with every edge appended to one slice and a closure per stateless
// route stage; 493 before metric blocks came to be reused and RPs shared one
// cost model; 520 before BlueGene placement became a direct call on bgCC,
// 552 through the poller; the commit before process blocks measured 1 256).
// Telemetry's share
// of it is at most the query's scope: every block and histogram of its
// processes is one a retired query folded and handed back — nothing per name,
// nothing per process, nothing per link that was dialed before.
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
		runSession6(t, e, 8)
	}
	const ceiling = 69
	got := testing.AllocsPerRun(20, func() { runSession6(t, e, 8) })
	if got > ceiling {
		t.Errorf("a 17-SP session allocates %.0f objects, ceiling %d", got, ceiling)
	}

	// Every allocation is sampled from here on. The rate takes effect at each
	// P's next sample point, up to a few hundred kB away: the sessions before
	// the first reading use that up.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for i := 0; i < 40; i++ {
		runSession6(t, e, 8)
	}
	const sessions = 20
	before := metricsAllocs()
	for i := 0; i < sessions; i++ {
		runSession6(t, e, 8)
	}
	per := float64(metricsAllocs()-before) / sessions
	t.Logf("%.0f allocations per session, %.1f of them telemetry", got, per)
	if per > 1 {
		t.Errorf("telemetry allocates %.1f objects per session, want at most the scope itself", per)
	}
}

// TestAllocsPerProcess pins what one more stream process costs a session on
// a warm engine: a Query 6 of 8 streams runs 8 processes more than one of 4
// (a producer and its counter per stream), and the difference of the two
// sessions' allocations, per added process, stays at the ceiling measured
// once a session that finished clean handed its processes, with their done
// latches, and its receivers' inboxes to the next (6.5 before, once a
// process's first subscriber, first wiring and id came to live in or beside
// its block and a recycled link kept its stage state; 12 before that). What
// is left is the plan's operators; a first subscriber or a first wiring
// appended to a slice of its own again adds one allocation per process.
func TestAllocsPerProcess(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for range 5 {
		runSession6(t, e, 8)
		runSession6(t, e, 4)
	}
	at := func(n int) float64 { return testing.AllocsPerRun(20, func() { runSession6(t, e, n) }) }
	const ceiling = 2.5
	per := (at(8) - at(4)) / 8
	t.Logf("%.3f allocations per added process", per)
	if per > ceiling {
		t.Errorf("an added process allocates %.3f objects, ceiling %.3f", per, ceiling)
	}
}

// TestBatchIDsReadAsOneStringEach: the ids an spv bag takes as slices of
// one string read as one string per process spelled them, across a digit
// boundary, and when a nested build takes an id between two of the bag's.
func TestBatchIDsReadAsOneStringEach(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	qc := beginQuery(t, e).qc
	qc.nextID = 7
	bag := rpIDs{n: 5}
	var got, want []string
	for _, step := range []struct {
		cluster string
		ids     *rpIDs
	}{{"bg", &bag}, {"bg", &bag}, {"bg", &bag}, {"be", &rpIDs{}}, {"bg", &bag}, {"bg", &bag}} {
		got = append(got, qc.newRPID(step.cluster, step.ids))
		want = append(want, fmt.Sprintf("%s/rp-%s-%d", qc.id, step.cluster, qc.nextID))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ids %q, want %q", got, want)
	}
}

// sessionMetricRows returns sys_metrics('@qid') on e without its rt. rows,
// each row rendered with the query id spelled "Q". The one time among them,
// rp.last_out, counts from the session's start, as makespans do.
func sessionMetricRows(t *testing.T, e *Engine, qid string) []string {
	t.Helper()
	tab, _ := e.SystemCatalog().Lookup("sys_metrics")
	rows, err := tab.Snap("@" + qid)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range rows {
		if name := row.Vals[1].(string); !strings.HasPrefix(name, metrics.RTPrefix) {
			row.Vals[1] = strings.NewReplacer(qid+"/", "Q/", "."+qid, ".Q").Replace(name)
			out = append(out, fmt.Sprint(row.Vals))
		}
	}
	return out
}

// TestReusedBlocksReadAsFresh: a session cancelled mid-stream hands its
// metric blocks back when it is retired, and the next session on the same
// warm engine takes them; that session's rows read exactly as the same
// session's on a fresh engine. So do the rows of a third session, which
// opens its processes in the ones the second, clean, handed back.
func TestReusedBlocksReadAsFresh(t *testing.T) {
	fresh, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	q, err := fresh.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	cs := buildQuery6(t, fresh, q, 8, 1000, 3, nil)
	if _, err := cs.Drain(); err != nil {
		t.Fatal(err)
	}
	want := sessionMetricRows(t, fresh, q.ID())

	warm, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	q, err = warm.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	cs = buildQuery6(t, warm, q, 8, 1000, 3, func(op sqep.Operator) sqep.Operator {
		return &gateOp{Operator: op, entered: entered, release: release}
	})
	done := make(chan error, 1)
	go func() {
		_, err := cs.Drain()
		done <- err
	}()
	<-entered
	q.Cancel(nil)
	close(release)
	if err := <-done; err == nil {
		t.Fatal("the cancelled session drained")
	}
	if err := warm.Reset(); err != nil {
		t.Fatal(err)
	}
	q, err = warm.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	cs = buildQuery6(t, warm, q, 8, 1000, 3, nil)
	handed := make(map[*SP]bool)
	for _, sp := range q.qc.snapshot() {
		handed[sp] = true
	}
	if _, err := cs.Drain(); err != nil {
		t.Fatal(err)
	}
	if cs.start == 0 {
		t.Fatal("the session on the warm engine started at time 0")
	}
	readsFresh := func(q *Query) {
		t.Helper()
		got := sessionMetricRows(t, warm, q.ID())
		if len(got) != len(want) {
			t.Fatalf("a session on a warm engine has %d rows, on a fresh engine %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("a session on a warm engine reads %s, on a fresh engine %s", got[i], want[i])
			}
		}
	}
	readsFresh(q)
	if err := warm.Reset(); err != nil {
		t.Fatal(err)
	}
	q, err = warm.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	cs = buildQuery6(t, warm, q, 8, 1000, 3, nil)
	reused := 0
	for _, sp := range q.qc.snapshot() {
		if handed[sp] {
			reused++
		}
	}
	if len(handed) != 17 || reused != len(handed) {
		t.Fatalf("the third session opens %d of its processes in the %d the second handed back", reused, len(handed))
	}
	if _, err := cs.Drain(); err != nil {
		t.Fatal(err)
	}
	readsFresh(q)
}

// TestEdgesKeepWiringOrder: a Query 6 at n = 8 lists its 17 edges in the
// order they were wired — the list below is what the engine listed while
// every edge was appended to one slice, before a chunk per connection — and
// charges each of the 45 devices it touches once (77 entries, with repeats,
// before).
func TestEdgesKeepWiringOrder(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q, err := e.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildQuery6(t, e, q, 8, 1000, 3, nil).Drain(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"{q1 q1/rp-be-1 q1/rp-bg-9 be 0 bg 0 tcp tcp:be:0->bg:0}",
		"{q1 q1/rp-be-2 q1/rp-bg-10 be 1 bg 8 tcp tcp:be:1->bg:8}",
		"{q1 q1/rp-be-3 q1/rp-bg-11 be 2 bg 16 tcp tcp:be:2->bg:16}",
		"{q1 q1/rp-be-4 q1/rp-bg-12 be 3 bg 24 tcp tcp:be:3->bg:24}",
		"{q1 q1/rp-be-5 q1/rp-bg-13 be 0 bg 1 tcp tcp:be:0->bg:1}",
		"{q1 q1/rp-be-6 q1/rp-bg-14 be 1 bg 9 tcp tcp:be:1->bg:9}",
		"{q1 q1/rp-be-7 q1/rp-bg-15 be 2 bg 17 tcp tcp:be:2->bg:17}",
		"{q1 q1/rp-be-8 q1/rp-bg-16 be 3 bg 25 tcp tcp:be:3->bg:25}",
		"{q1 q1/rp-bg-9 q1/rp-bg-17 bg 0 bg 2 mpi mpi:bg:0->bg:2}",
		"{q1 q1/rp-bg-10 q1/rp-bg-17 bg 8 bg 2 mpi mpi:bg:8->bg:2}",
		"{q1 q1/rp-bg-11 q1/rp-bg-17 bg 16 bg 2 mpi mpi:bg:16->bg:2}",
		"{q1 q1/rp-bg-12 q1/rp-bg-17 bg 24 bg 2 mpi mpi:bg:24->bg:2}",
		"{q1 q1/rp-bg-13 q1/rp-bg-17 bg 1 bg 2 mpi mpi:bg:1->bg:2}",
		"{q1 q1/rp-bg-14 q1/rp-bg-17 bg 9 bg 2 mpi mpi:bg:9->bg:2}",
		"{q1 q1/rp-bg-15 q1/rp-bg-17 bg 17 bg 2 mpi mpi:bg:17->bg:2}",
		"{q1 q1/rp-bg-16 q1/rp-bg-17 bg 25 bg 2 mpi mpi:bg:25->bg:2}",
		"{q1 q1/rp-bg-17 q1/client bg 2 fe 0 tcp tcp:bg:2->fe:0}",
	}
	var got []string
	for _, ed := range e.Edges() {
		got = append(got, fmt.Sprint(ed))
	}
	if !slices.Equal(got, want) {
		t.Errorf("edges:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	q.qc.mu.Lock()
	charged := slices.Clone(q.qc.charged)
	q.qc.mu.Unlock()
	distinct := make(map[*vtime.Resource]bool)
	for _, r := range charged {
		distinct[r] = true
	}
	if len(charged) != 45 || len(distinct) != 45 {
		t.Errorf("the query charges %d entries for %d devices, want 45 for 45", len(charged), len(distinct))
	}
}
