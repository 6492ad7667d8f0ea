package scsq

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"scsq/internal/catalog"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

func newEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func TestQuickstartQuery(t *testing.T) {
	eng := newEngine(t)
	stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(30000,10), 'bg', 1);`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := stream.One()
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(10) {
		t.Errorf("count = %v, want 10", v)
	}
	if stream.Makespan() <= 0 {
		t.Errorf("makespan = %v, want > 0", stream.Makespan())
	}
	if bw := stream.BandwidthMbps(300_000); bw <= 0 {
		t.Errorf("bandwidth = %v, want > 0", bw)
	}
}

func TestExecDefinesFunctions(t *testing.T) {
	eng := newEngine(t)
	res, err := eng.Exec(`create function f(integer n) -> stream as select extract(a) from sp a where a=sp(iota(1,n), 'be');`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Defined != "f" || res.Stream != nil {
		t.Fatalf("res = %+v, want Defined=f", res)
	}
	if _, err := eng.Query(`create function g() -> stream as select extract(a) from sp a where a=sp(iota(1,1), 'be');`); err == nil {
		t.Error("Query of a definition should fail")
	}
	stream, err := eng.Query(`select f(3);`)
	if err != nil {
		t.Fatal(err)
	}
	els, err := stream.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 3 {
		t.Errorf("elements = %d, want 3", len(els))
	}
}

func TestDrainIdempotent(t *testing.T) {
	eng := newEngine(t)
	stream, err := eng.Query(`select extract(a) from sp a where a=sp(iota(1,4), 'be');`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := stream.Drain()
	if err != nil {
		t.Fatal(err)
	}
	second, err := stream.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 4 || len(second) != 4 {
		t.Errorf("drains = %d/%d elements, want 4/4", len(first), len(second))
	}
}

func TestResetAllowsSequentialQueries(t *testing.T) {
	eng := newEngine(t)
	for i := 0; i < 3; i++ {
		stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(10000,3), 'bg', 1);`)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if v, err := stream.One(); err != nil || v != int64(3) {
			t.Fatalf("round %d: v=%v err=%v", i, v, err)
		}
		eng.Reset()
	}
}

func TestWithFilesAndGrep(t *testing.T) {
	eng := newEngine(t, WithFiles(
		[]string{"log.txt"},
		map[string]string{"log.txt": "alpha\nmatch me\nbeta"},
	))
	stream, err := eng.Query(`merge(spv((select grep('match', filename(i)) from integer i where i in iota(1,1)), 'be'));`)
	if err != nil {
		t.Fatal(err)
	}
	els, err := stream.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 1 || els[0].Value != "match me" {
		t.Errorf("grep = %v", els)
	}
	if els[0].Source == "" {
		t.Error("merged elements must carry their source process")
	}
}

func TestWithArraySource(t *testing.T) {
	eng := newEngine(t, WithArraySource("sig", []float64{1, 2, 3, 4}))
	stream, err := eng.Query(`select extract(c) from sp c where c=sp(receiver('sig'), 'be');`)
	if err != nil {
		t.Fatal(err)
	}
	els, err := stream.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 1 {
		t.Fatalf("elements = %d, want 1", len(els))
	}
	arr, ok := els[0].Value.([]float64)
	if !ok || len(arr) != 4 || arr[3] != 4 {
		t.Errorf("array = %v", els[0].Value)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := New(WithMPIBufferBytes(0)); err == nil {
		t.Error("zero MPI buffer should fail")
	}
	if _, err := New(WithTorus(0, 1, 1)); err == nil {
		t.Error("bad torus should fail")
	}
	if _, err := New(WithBackEndNodes(-1)); err == nil {
		t.Error("negative back-end nodes should fail")
	}
}

func TestBufferingOptionsChangeBandwidth(t *testing.T) {
	run := func(opts ...Option) time.Duration {
		eng := newEngine(t, append(opts, WithMPIBufferBytes(100_000))...)
		stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(300000,10), 'bg', 1);`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.One(); err != nil {
			t.Fatal(err)
		}
		return stream.Makespan()
	}
	single := run(WithSingleBuffering())
	double := run() // double buffering is the default
	if double >= single {
		t.Errorf("double buffering (%v) should beat single (%v) at 100 KB buffers", double, single)
	}
}

func TestSyntaxErrorSurfaces(t *testing.T) {
	eng := newEngine(t)
	_, err := eng.Query(`selec nonsense`)
	if err == nil || !strings.Contains(err.Error(), "scsql") {
		t.Errorf("err = %v, want scsql syntax error", err)
	}
}

func TestUtilizationPublicAPI(t *testing.T) {
	eng := newEngine(t)
	stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(100000,5), 'bg', 1);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.One(); err != nil {
		t.Fatal(err)
	}
	// Between Drain and Reset, sys_resources() is the query's utilization
	// report: one row per (device, owner) it charged.
	usage := sysRows(t, eng, `select sys_resources();`)
	if len(usage) == 0 {
		t.Fatal("sys_resources() is empty after a query")
	}
	busiest, busy := "", int64(0)
	for _, r := range usage {
		if b := r.Vals[2].(int64); b > busy {
			busiest, busy = r.Vals[0].(string), b
		}
	}
	// The point-to-point sender's co-processor is the busiest device.
	if busiest != "bg1.coproc" {
		t.Errorf("bottleneck = %q, want bg1.coproc", busiest)
	}
	if share := float64(busy) / float64(stream.Makespan()); share <= 0 || share > 1.01 {
		t.Errorf("share = %v", share)
	}
}

// sysRows reads the system catalog the one way there is: by statement.
func sysRows(t *testing.T, eng *Engine, stmt string) []catalog.Tuple {
	t.Helper()
	stream, err := eng.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	els, err := stream.Drain()
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	rows := make([]catalog.Tuple, len(els))
	for i, el := range els {
		rows[i] = el.Value.(catalog.Tuple)
	}
	return rows
}

// TestInboundCountPublicAPI runs Query 1's shape through the public API:
// three back-end generators of four arrays each, merged and counted on the
// BlueGene over TCP.
func TestInboundCountPublicAPI(t *testing.T) {
	eng := newEngine(t)
	stream, err := eng.Query(`
select extract(b)
from bag of sp a, sp b, integer n
where b=sp(count(merge(a)), 'bg')
and   a=spv((select gen_array(20000,4) from integer i where i in iota(1,n)), 'be', 1)
and   n=3;`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := stream.One()
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(12) {
		t.Errorf("count = %v, want 12", v)
	}
}

func TestUDPInboundPublicAPI(t *testing.T) {
	eng := newEngine(t, WithUDPInbound(0.3))
	stream, err := eng.Query(`
select extract(b)
from bag of sp a, sp b, integer n
where b=sp(count(merge(a)), 'bg')
and   a=spv((select gen_array(2000,100) from integer i where i in iota(1,n)), 'be', 1)
and   n=2;`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := stream.One()
	if err != nil {
		t.Fatal(err)
	}
	count, ok := v.(int64)
	if !ok {
		t.Fatalf("count = %T", v)
	}
	if count >= 200 || count < 80 {
		t.Errorf("lossy count = %d, want (80,200) at 30%% loss", count)
	}
	if _, err := New(WithUDPInbound(-0.1)); err == nil {
		t.Error("negative loss rate should be rejected")
	}
}

// TestTracingDoesNotPerturb pins WithTracing's contract on a Figure 6 point
// (the Figure 5 query at a 10 kB MPI buffer): the traced run writes
// trace-event JSON that parses, with one transfer span per frame a link
// delivered and a span of the same frame for every hop it crossed, and it
// measures the same makespan as the untraced run.
func TestTracingDoesNotPerturb(t *testing.T) {
	run := func(opts ...Option) (*Engine, time.Duration) {
		t.Helper()
		eng := newEngine(t, append([]Option{WithMPIBufferBytes(10_000)}, opts...)...)
		stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(30000,10), 'bg', 1);`)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.One(); err != nil {
			t.Fatal(err)
		}
		return eng, stream.Makespan()
	}
	plain, want := run()
	if err := plain.WriteTrace(io.Discard); err == nil {
		t.Error("WriteTrace without WithTracing should fail")
	}
	traced, got := run(WithTracing(0))
	if got != want {
		t.Errorf("traced makespan %v != untraced %v", got, want)
	}

	var buf bytes.Buffer
	if err := traced.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	spans := map[any]int{} // spans per frame trace id
	var transfers int64
	var hops []any
	for _, ev := range file.TraceEvents {
		id := ev.Args["trace_id"]
		switch ev.Ph {
		case "X":
			spans[id]++
			if ev.Name == "transfer" {
				transfers++
			}
		case "i":
			hops = append(hops, id)
		}
	}
	if len(hops) == 0 {
		t.Fatal("trace holds no frame hop")
	}
	for _, id := range hops {
		if id == nil || spans[id] == 0 {
			t.Fatalf("hop of frame %v has no span", id)
		}
	}
	frames := traced.MetricsSnapshot().SumCounters("link.frames.")
	if transfers != frames {
		t.Errorf("%d transfer spans for %d delivered frames", transfers, frames)
	}
	t.Logf("%d frames, %d hops, makespan %v", frames, len(hops), got)
}

func TestTopologyPublicAPI(t *testing.T) {
	eng := newEngine(t)
	stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(10000,2), 'bg', 1);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.One(); err != nil {
		t.Fatal(err)
	}
	edges := sysRows(t, eng, `select sys_links();`)
	if len(edges) != 2 {
		t.Fatalf("topology edges = %d, want 2", len(edges))
	}
	field := func(r catalog.Tuple, name string) any { v, _ := r.Field(name); return v }
	if e := edges[0]; field(e, "carrier") != "mpi" ||
		field(e, "from_cluster") != "bg" || field(e, "from_node") != int64(1) ||
		field(e, "to_cluster") != "bg" || field(e, "to_node") != int64(0) {
		t.Errorf("mpi edge = %s", e)
	}
	if !strings.HasSuffix(field(edges[1], "consumer").(string), "/client") {
		t.Errorf("client edge = %s", edges[1])
	}
}

func TestCloseIdempotent(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleEngineRunsNothing: an engine with no query in flight holds no
// goroutine. New starts none (bgCC places in the admitting turn; it does not
// poll), and once a drained query's kernel workers outlive their idle
// retention (20 ms, vtime's idleWorkers) the count is back at the baseline
// taken before New.
func TestIdleEngineRunsNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	eng := newEngine(t)
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("New left %d goroutines running, baseline %d\n%s", n, baseline, goroutines())
	}
	stream, err := eng.Query(`select extract(b) from sp a, sp b where b=sp(count(extract(a)), 'bg') and a=sp(iota(1,4), 'bg');`)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := stream.One(); err != nil || v != int64(4) {
		t.Fatalf("v=%v err=%v, want 4", v, err)
	}
	// A receiver that stops early (limit) and a cancelled session leave
	// nothing running either: no drain outlives its stream.
	for range 3 {
		stream, err := eng.Query(`select limit(extract(a), 2) from sp a where a=sp(gen_array(1000, 50), 'bg');`)
		if err != nil {
			t.Fatal(err)
		}
		if els, err := stream.Drain(); err != nil || len(els) != 2 {
			t.Fatalf("limit read %d elements, err %v; want 2", len(els), err)
		}
	}
	live, err := eng.Submit(`select extract(a) from sp a where a=sp(count(streamof(sys_rps())), 'bg', 0);`)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); live.State() != SessionRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the live session reads %v, want running", live.State())
		}
	}
	if err := live.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Wait(); err == nil {
		t.Fatal("a cancelled session ended without an error")
	}
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("an idle engine holds %d goroutines, baseline %d\n%s", n, baseline, goroutines())
	}
}

// goroutines is every goroutine's stack, for a failure message.
func goroutines() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}

func TestConcurrentSessionsPublicAPI(t *testing.T) {
	eng := newEngine(t)
	src := `
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg')
and   a=sp(gen_array(30000,8), 'bg');`
	s1, err := eng.Submit(src)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	s2, err := eng.Submit(src)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	for i, s := range []*Session{s1, s2} {
		els, err := s.Wait()
		if err != nil {
			t.Fatalf("session %d: %v", i+1, err)
		}
		if got := els[len(els)-1].Value; got != int64(8) {
			t.Fatalf("session %d count = %v, want 8", i+1, got)
		}
		if s.State() != SessionDone {
			t.Fatalf("session %d state = %v, want done", i+1, s.State())
		}
		if s.Nodes() != 0 {
			t.Fatalf("session %d still holds %d nodes", i+1, s.Nodes())
		}
	}
	if s1.ID() == s2.ID() {
		t.Fatalf("sessions share id %s", s1.ID())
	}
	if infos := sysRows(t, eng, `select sys_sessions();`); len(infos) != 2 {
		t.Fatalf("sys_sessions() returned %d rows, want 2", len(infos))
	}
	if err := eng.Reset(); err != nil {
		t.Fatalf("reset after completion: %v", err)
	}
}

func TestResetRefusesWhileSessionLive(t *testing.T) {
	eng := newEngine(t)
	s, err := eng.Submit(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg')
and   a=sp(gen_array(30000,500), 'bg');`)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := eng.Reset(); err == nil {
		t.Fatal("Reset succeeded under a live session")
	}
	if err := s.Cancel(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := s.Wait(); err == nil {
		t.Fatal("cancelled session drained cleanly")
	}
	if err := eng.Reset(); err != nil {
		t.Fatalf("reset after cancel: %v", err)
	}
}

// rowsThenCancel is a source of three rows that then blocks until its
// query is cancelled; parked closes once the three have gone downstream.
type rowsThenCancel struct {
	ctx    *sqep.Ctx
	n      int
	parked chan struct{}
}

func (r *rowsThenCancel) Open(ctx *sqep.Ctx) error { r.ctx = ctx; return nil }

func (r *rowsThenCancel) Next() (sqep.Element, bool, error) {
	if r.n < 3 {
		r.n++
		return sqep.Element{Value: int64(r.n)}, true, nil
	}
	close(r.parked)
	vtime.Wait(r.ctx.Agent, vtime.Tick, r.ctx.Cancel.Done(), r.ctx.Cancel.Done())
	return sqep.Element{}, false, r.ctx.Cancel.Cause()
}

func (r *rowsThenCancel) Close() error { return nil }

// TestWaitKeepsRowsOfAFailedSession: a live stream cancelled after its first
// rows answers Wait with those rows and ErrCancelled — a read takes the rows
// off the session, so a Wait that dropped them on an error would lose them.
func TestWaitKeepsRowsOfAFailedSession(t *testing.T) {
	parked := make(chan struct{})
	eng := newEngine(t, func(c *config) error {
		c.core.Sources["rows"] = func(*sqep.Ctx) sqep.Operator { return &rowsThenCancel{parked: parked} }
		return nil
	})
	s, err := eng.Submit(`select receiver('rows');`)
	if err != nil {
		t.Fatal(err)
	}
	<-parked // the drain has pushed the three rows: it asked for a fourth
	if err := s.Cancel(); err != nil {
		t.Fatal(err)
	}
	els, err := s.Wait()
	if !errors.Is(err, ErrCancelled) || len(els) != 3 || els[0].Value != int64(1) || els[2].Value != int64(3) {
		t.Fatalf("Wait = %v, %v; want the three rows and ErrCancelled", els, err)
	}
}
