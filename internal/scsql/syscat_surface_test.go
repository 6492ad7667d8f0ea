package scsql_test

// End-to-end SCSQL surface of the system catalog: sys_* virtual tables as
// first-class relations, field access and equality predicates in
// comprehensions, live-delta streamof over tables, and the non-perturbation
// replay proof (bit-identical schedules with and without an active catalog
// subscriber).

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scsq/internal/catalog"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/sched"
	"scsq/internal/scsql"
	"scsq/internal/vtime"
)

func TestCountSysSessions(t *testing.T) {
	_, s, ev := newSchedEngine(t)
	q, err := s.Submit(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	rows := drainRows(t, ev, `select count(sys_sessions());`)
	if len(rows) != 1 || rows[0].Value != int64(1) {
		t.Fatalf("count(sys_sessions()) = %v, want one element 1", rows)
	}
}

// TestSysNodesFilteredJoin is the acceptance query: sys_nodes() joined with
// torus coordinates and filtered by field predicates — select the BlueGene
// nodes on the x=0 face of the torus.
func TestSysNodesFilteredJoin(t *testing.T) {
	e, _, ev := newSchedEngine(t)
	rows := drainRows(t, ev, `select n.node from stream n where n in sys_nodes() and n.cluster = 'bg' and n.x = 0;`)
	if len(rows) == 0 {
		t.Fatalf("no bg nodes with x = 0")
	}
	want := 0
	tor := e.Env().Torus
	for id := 0; id < e.Env().ClusterSize(hw.BlueGene); id++ {
		if co, err := tor.CoordOf(id); err == nil && co.X == 0 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("x=0 face has %d rows, want %d", len(rows), want)
	}
	for _, el := range rows {
		id, ok := el.Value.(int64)
		if !ok {
			t.Fatalf("n.node = %T, want int64", el.Value)
		}
		co, err := tor.CoordOf(int(id))
		if err != nil || co.X != 0 {
			t.Fatalf("node %d not on the x=0 face (coord %v, err %v)", id, co, err)
		}
	}
}

func TestSysMetricsPatternAnywhere(t *testing.T) {
	_, s, ev := newSchedEngine(t)
	q, err := s.Submit(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	rows := drainRows(t, ev, `select sys_metrics('%bytes%');`)
	if len(rows) == 0 {
		t.Fatalf("sys_metrics('%%bytes%%') matched nothing")
	}
	for _, el := range rows {
		tup, ok := el.Value.(catalog.Tuple)
		if !ok {
			t.Fatalf("sys_metrics row = %T, want catalog.Tuple", el.Value)
		}
		name, _ := tup.Field("name")
		if !strings.Contains(name.(string), "bytes") {
			t.Fatalf("row %s does not match %%bytes%%", tup)
		}
	}
}

func TestSysLinksReportEdges(t *testing.T) {
	e, s, ev := newSchedEngine(t)
	q, err := s.Submit(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	rows := drainRows(t, ev, `select sys_links();`)
	if len(rows) != len(e.Edges()) {
		t.Fatalf("sys_links() has %d rows, engine has %d edges", len(rows), len(e.Edges()))
	}
	carried := int64(0)
	for _, el := range rows {
		tup := el.Value.(catalog.Tuple)
		frames, _ := tup.Field("frames")
		carried += frames.(int64)
		if c, _ := tup.Field("carrier"); c != "mpi" && c != "tcp" && c != "udp" {
			t.Fatalf("unexpected carrier in %s", tup)
		}
	}
	if carried == 0 {
		t.Fatalf("no link carried frames: %v", rows)
	}
}

// TestSysResourcesSumToBusyTime: sys_resources() is every device's owner
// table — a device's rows sum to its BusyTime while the query is the owner,
// still do once the query is retired (its time folded into "retired"), and
// are gone after Reset.
func TestSysResourcesSumToBusyTime(t *testing.T) {
	e, _, ev := newSchedEngine(t)
	q, err := e.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := scsql.Parse(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatal(err)
	}
	var stream *core.ClientStream
	if err := e.BuildAs(q, func() (err error) {
		stream, err = ev.Build(q, stmt.Query)
		return err
	}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := stream.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	check := func(when, wantOwner string) {
		t.Helper()
		sums := map[string]int64{}
		for _, el := range drainRows(t, ev, `select sys_resources();`) {
			tup := el.Value.(catalog.Tuple)
			if owner, _ := tup.Field("owner"); owner != wantOwner {
				t.Errorf("%s: %s is not owned by %q", when, tup, wantOwner)
			}
			name, _ := tup.Field("resource")
			busy, _ := tup.Field("busy_ns")
			sums[name.(string)] += busy.(int64)
		}
		if len(sums) == 0 {
			t.Errorf("%s: sys_resources() is empty", when)
		}
		for _, r := range e.Env().Resources() {
			if got, want := sums[r.Name()], int64(r.BusyTime()); got != want {
				t.Errorf("%s: %s rows sum to %d ns, BusyTime is %d", when, r.Name(), got, want)
			}
		}
	}
	check("after the query", q.ID())
	// "Which devices did this query keep busy for more than a millisecond?"
	// is a filter over the table; the sender's co-processor — Figure 5's
	// bottleneck — is among them. (A filter is free in the model; a select
	// expression is not, and would charge this reader's own query.)
	hot := drainRows(t, ev, `select r from stream r where r in sys_resources() and r.owner = '`+q.ID()+`' and r.busy_ns > 1000000;`)
	found := false
	for _, el := range hot {
		name, _ := el.Value.(catalog.Tuple).Field("resource")
		found = found || name == "bg1.coproc"
	}
	if !found {
		t.Errorf("bg1.coproc is not among the devices %s kept busy > 1 ms: %v", q.ID(), hot)
	}
	q.Retire()
	check("after the query is retired", vtime.RetiredOwner)
	if err := e.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if rows := drainRows(t, ev, `select sys_resources();`); len(rows) != 0 {
		t.Errorf("sys_resources() after Reset: %v, want no busy time", rows)
	}
}

// TestCatalogRead pins which statements run without admission: reads of the
// registered tables and finite folds of them — nothing that can
// hold a node, generate load or never end, and nothing it does not know.
func TestCatalogRead(t *testing.T) {
	e, s, _ := newSchedEngine(t)
	if _, err := s.Submit(`create function twice(integer n) -> stream as select extract(a) from sp a where a=sp(iota(1,n), 'be');`); err != nil {
		t.Fatal(err)
	}
	for src, want := range map[string]bool{
		`select sys_sessions();`:                                             true,
		`select SYS_Metrics('@q3');`:                                         true,
		`select sys_metrics('sched.%');`:                                     true,
		`select count(sys_nodes());`:                                         true,
		`select limit(sys_rps(), 3);`:                                        true,
		`select n.cluster from stream n where n in sys_nodes() and n.x = 1;`: true,
		`select count((select s from stream s where s in sys_sessions() and s.nodes > 0));`: true,
		`select ps();`:                     false,
		`select monitor('sched.%');`:       false,
		`select streamof(sys_sessions());`: false,
		`select count(iota(1,10));`:        false,
		`select count(gen_array(8,2));`:    false,
		`select cancel('q1');`:             false,
		`select twice(3);`:                 false,
		`select sys_bogus();`:              false,
		`select extract(a) from sp a where a=sp(sys_nodes(), 'be');`:                false,
		`select n from stream n where n in sys_nodes() and n.x < count(iota(1,9));`: false,
		`create function f(integer n) -> stream as select sys_nodes();`:             false,
	} {
		stmt, err := scsql.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := scsql.CatalogRead(stmt, e.SystemCatalog()); got != want {
			t.Errorf("CatalogRead(%s) = %v, want %v", src, got, want)
		}
	}
}

// TestStreamofSysMetricsLive drives the live-delta stream end to end: the
// initial snapshot flows immediately, and the metrics of a query that starts
// afterwards are emitted as that query's own progress ticks the clock.
func TestStreamofSysMetricsLive(t *testing.T) {
	_, s, ev := newSchedEngine(t)
	q, err := s.Submit(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	base := drainRows(t, ev, `select sys_metrics('rp.%');`)
	if len(base) == 0 {
		t.Fatalf("no rp.%% metrics after a run")
	}

	// Limit to one past the initial snapshot: the stream must block until a
	// tick delivers a delta row, then terminate.
	live, err := s.Submit(`select limit(streamof(sys_metrics('rp.%')), ` + itoa(len(base)+1) + `);`)
	if err != nil {
		t.Fatalf("submit live: %v", err)
	}
	b, ok, err := live.NextBatch() // read: Wait returns the rest
	if !ok || err != nil {
		t.Fatalf("no initial snapshot: %v", err)
	}
	read := slices.Clone(b) // the batch is valid until the next read
	// Only now does the delta's query start: nothing else moves the clock.
	q2, err := s.Submit(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q2.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	select {
	case <-live.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("live stream still %v after %s ran", live.State(), q2.ID())
	}
	els, err := live.Wait()
	if err != nil {
		t.Fatalf("live: %v", err)
	}
	if els = append(read, els...); len(els) != len(base)+1 {
		t.Fatalf("live stream yielded %d + %d rows, want %d", len(read), len(els)-len(read), len(base)+1)
	}
	name, _ := els[len(base)].Value.(catalog.Tuple).Field("name")
	if !strings.Contains(name.(string), "."+q2.ID()+"/") {
		t.Fatalf("the delta row %v is not a metric of %s", name, q2.ID())
	}
}

// TestStreamofSysTableNeedsScheduler: without a scheduler there is no
// virtual-time pacing source, so the live form is an error (the plain
// snapshot form still works).
func TestStreamofSysTableNeedsScheduler(t *testing.T) {
	e, err := core.NewEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Close()
	ev := scsql.NewEvaluator(e, nil)
	if _, err := ev.Exec(`select streamof(sys_metrics());`); err == nil || !strings.Contains(err.Error(), "no query scheduler") {
		t.Fatalf("err = %v, want no-scheduler error", err)
	}
	rows := drainRows(t, ev, `select count(sys_nodes());`)
	if len(rows) != 1 {
		t.Fatalf("count(sys_nodes()) on a bare engine: %v", rows)
	}
}

// fig5Outcome is the schedule fingerprint the replay proof compares: the
// result itself plus every BlueGene CPU's accounted busy time and free
// frontier. Any virtual-time perturbation by the observer would shift one
// of these.
type fig5Outcome struct {
	count    int
	makespan vtime.Time
	busy     []vtime.Duration
	free     []vtime.Time
}

func runFig5WithObserver(t *testing.T, observe bool) fig5Outcome {
	t.Helper()
	e, err := core.NewEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	s := sched.New(e, nil)
	ev := scsql.NewEvaluator(e, s.Catalog())

	// The observer re-polls on every tick the measured query's own progress
	// delivers: the production path, not a harness ticker.
	var wg sync.WaitGroup
	if observe {
		res, err := ev.Exec(`select streamof(sys_metrics('rp.%'));`)
		if err != nil {
			t.Fatalf("exec streamof: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = res.Stream.Drain() // runs until the scheduler closes the tick source
		}()
	}

	q, err := s.Submit(scsql.Figure5Query(30_000, 6))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	els, err := q.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	out := fig5Outcome{count: len(els), makespan: q.Makespan()}
	for id := 0; id < e.Env().ClusterSize(hw.BlueGene); id++ {
		n, err := e.Env().Node(hw.BlueGene, id)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		out.busy = append(out.busy, n.CPU.BusyTime())
		out.free = append(out.free, n.CPU.FreeAt())
	}

	if err := s.Close(); err != nil {
		t.Fatalf("sched close: %v", err)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	return out
}

// TestCatalogSubscriberBitIdentity is the paper's non-perturbation
// requirement applied to the catalog: the same workload with an active
// streamof(sys_metrics()) subscriber, re-polling on every tick the
// workload's own progress delivers, produces a bit-identical virtual
// schedule.
func TestCatalogSubscriberBitIdentity(t *testing.T) {
	bare := runFig5WithObserver(t, false)
	observed := runFig5WithObserver(t, true)
	if bare.count != observed.count || bare.makespan != observed.makespan {
		t.Fatalf("result diverged: bare {n=%d, makespan=%d}, observed {n=%d, makespan=%d}",
			bare.count, bare.makespan, observed.count, observed.makespan)
	}
	for i := range bare.busy {
		if bare.busy[i] != observed.busy[i] || bare.free[i] != observed.free[i] {
			t.Fatalf("bg node %d schedule diverged: bare busy=%d free=%d, observed busy=%d free=%d",
				i, bare.busy[i], bare.free[i], observed.busy[i], observed.free[i])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
