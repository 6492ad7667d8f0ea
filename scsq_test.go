package scsq

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scsq/internal/catalog"
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
	double := run(WithDoubleBuffering())
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

func TestRealTCPModePublicAPI(t *testing.T) {
	eng := newEngine(t, WithRealTCP())
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
		t.Errorf("count over real sockets = %v, want 12", v)
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

// TestLoadSheddingPublicAPI drives the resilience options through the public
// surface: with a capacity-1 admission queue and shedding on, a
// higher-priority submission evicts the queued session (SessionShed,
// ErrShed) instead of being refused, and the resilience columns ride along
// in sys_sessions().
func TestLoadSheddingPublicAPI(t *testing.T) {
	eng := newEngine(t,
		WithAdmissionQueueCap(1),
		WithLoadShedding(),
		WithAdmissionRetry(2, time.Millisecond, 4*time.Millisecond))
	// All three sessions contend for the same explicit node, so admission
	// order is forced regardless of pool size.
	src := `
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 1)
and   a=sp(gen_array(30000,5000), 'bg', 0);`
	hold, err := eng.Submit(src)
	if err != nil {
		t.Fatalf("submit hold: %v", err)
	}
	victim, err := eng.Submit(src, WithQueueTTL(time.Hour))
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	winner, err := eng.Submit(src, WithPriority(1))
	if err != nil {
		t.Fatalf("submit winner: %v", err)
	}
	if _, err := victim.Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("victim err = %v, want ErrShed", err)
	}
	if st := victim.State(); st != SessionShed {
		t.Fatalf("victim state = %v, want shed", st)
	}
	if err := eng.CancelSession(hold.ID()); err != nil {
		t.Fatalf("cancel hold: %v", err)
	}
	if els, err := winner.Wait(); err != nil {
		t.Fatalf("winner: %v", err)
	} else if got := els[len(els)-1].Value; got != int64(5000) {
		t.Fatalf("winner count = %v, want 5000", got)
	}
	for _, in := range sysRows(t, eng, `select sys_sessions();`) {
		// A terminal session's deadline column reads zero (deadlines govern
		// the current state only) — just the state must survive.
		if id, _ := in.Field("id"); id != victim.ID() {
			continue
		}
		if st, _ := in.Field("state"); st != SessionShed.String() {
			t.Fatalf("sys_sessions() reports %v for shed session", st)
		}
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
	if err := eng.CancelSession(s.ID()); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := s.Wait(); err == nil {
		t.Fatal("cancelled session drained cleanly")
	}
	if err := eng.Reset(); err != nil {
		t.Fatalf("reset after cancel: %v", err)
	}
}
