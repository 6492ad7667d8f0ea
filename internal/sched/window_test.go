package sched

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"scsq/internal/catalog"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// trivial is a client-only statement: three rows, no stream process.
const trivial = `select i from integer i where i in iota(1,3);`

// TestFinishedWindowEvicts submits more sessions than the finished window
// holds and pins what eviction means: the table is the live sessions plus
// the rows of the last finishedWindow finished ones in submission order, a
// row in the window is finished (Cancel says ErrQueryFinished), an evicted
// id no longer resolves (it says ErrUnknownQuery), a held handle of
// an evicted session still delivers its results, and a live
// streamof(sys_sessions()) subscriber survives the evictions — a live-delta
// stream reports a removal by the row's absence from its next poll.
func TestFinishedWindowEvicts(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	live, err := s.Submit(`select streamof(sys_sessions());`)
	if err != nil {
		t.Fatalf("submit live stream: %v", err)
	}
	liveRows := live.Results()
	if _, ok, err := liveRows.Next(); !ok || err != nil {
		t.Fatalf("live stream's opening snapshot: ok=%v err=%v", ok, err)
	}

	const total = finishedWindow + 50
	held := make([]*Query, 0, total)
	for i := 0; i < total; i++ {
		q, err := s.Submit(trivial)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := q.Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		held = append(held, q)
	}
	first, window := held[0], held[total-finishedWindow:]

	infos := s.List()
	if len(infos) != finishedWindow+1 {
		t.Fatalf("List has %d rows, want the live stream + %d finished", len(infos), finishedWindow)
	}
	if infos[0].ID != live.ID() || infos[0].State.Final() {
		t.Errorf("first row = %+v, want the live stream %s (submitted first, never evicted)", infos[0], live.ID())
	}
	for i, q := range window {
		if infos[i+1].ID != q.ID() {
			t.Fatalf("row %d is %s, want %s: submission order broken", i+1, infos[i+1].ID, q.ID())
		}
	}
	if n := s.Active(); n != 1 {
		t.Errorf("Active = %d, want the live stream only", n)
	}

	if err := s.Cancel(first.ID()); !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("Cancel(evicted id) = %v, want ErrUnknownQuery", err)
	}
	if err := first.Cancel(); !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("evicted handle's Cancel = %v, want ErrUnknownQuery", err)
	}
	// A finished session in the window is a row: its handle is the caller's.
	if err := window[0].Cancel(); !errors.Is(err, ErrQueryFinished) {
		t.Errorf("Cancel(oldest in window) = %v, want ErrQueryFinished", err)
	}

	// The held handle of the evicted session still answers.
	els, err := first.Wait()
	if err != nil || len(els) != 3 || els[2].Value != int64(3) {
		t.Errorf("evicted handle's Wait = %v, %v; want its three rows", els, err)
	}
	it := first.Results()
	for i := 0; i < 3; i++ {
		if el, ok, err := it.Next(); !ok || err != nil || el.Value != int64(i+1) {
			t.Fatalf("fresh iterator, row %d: %v ok=%v err=%v", i, el.Value, ok, err)
		}
	}
	if _, ok, err := it.Next(); ok || err != nil {
		t.Errorf("fresh iterator did not end cleanly: ok=%v err=%v", ok, err)
	}
	if first.State() != Done || first.Nodes() != 0 {
		t.Errorf("evicted handle: state %v, %d nodes", first.State(), first.Nodes())
	}

	// One tick: the live stream polls once and emits the rows that are new
	// since its opening snapshot. Those are the window's sessions; the fifty
	// evicted ones came and went between polls and leave no row behind.
	evicted := make(map[string]bool)
	for _, q := range held[:total-finishedWindow] {
		evicted[q.ID()] = true
	}
	s.ObserveVTime(vtime.Time(vtime.Millisecond))
	last := held[total-1].ID()
	for {
		el, ok, err := liveRows.Next()
		if !ok || err != nil {
			t.Fatalf("live stream ended before reporting %s: ok=%v err=%v", last, ok, err)
		}
		id, _ := el.Value.(catalog.Tuple).Field("id")
		if evicted[id.(string)] {
			t.Errorf("live stream reported evicted session %v", id)
		}
		if id == last {
			break
		}
	}
	if err := live.Cancel(); err != nil {
		t.Fatalf("cancel live stream: %v", err)
	}
	if _, err := live.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("live stream ended with %v, want ErrCancelled", err)
	}
}

// TestServedEngineStaysBounded is the never-Reset contract of a served
// engine: after the finished window has filled, everything the engine and
// the scheduler hold per session is the same size at session 500 and at
// session 1500, and nothing the evicted sessions counted is lost.
func TestServedEngineStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("1500 sessions")
	}
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()
	src, err := scsql.InboundQuery(6, 8, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	feNIC, err := e.Env().Node(hw.FrontEnd, 0)
	if err != nil {
		t.Fatal(err)
	}

	type footprint struct {
		edges, keys, nicOwners, sessions int
	}
	measure := func() (footprint, float64) {
		snap := e.MetricsSnapshot()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return footprint{
			edges:     len(e.Edges()),
			keys:      len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms),
			nicOwners: len(feNIC.NIC.OwnerBusy()),
			sessions:  len(s.List()),
		}, float64(m.HeapAlloc) / 1e6
	}

	var perSession int64
	var at500 footprint
	var heap500 float64
	for i := 1; i <= 1500; i++ {
		q, err := s.Submit(src)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		els, err := q.Wait()
		if err != nil || len(els) != 1 || els[0].Value != int64(8) {
			t.Fatalf("session %d: %v, %v; want the count 8", i, els, err)
		}
		switch i {
		case 1:
			perSession = e.MetricsSnapshot().SumCounters("rp.elements_out.")
		case 500:
			at500, heap500 = measure()
		}
	}
	at1500, heap1500 := measure()
	if at1500 != at500 {
		t.Errorf("footprint grew with history:\n  after  500 sessions %+v\n  after 1500 sessions %+v", at500, at1500)
	}
	if at500.sessions != finishedWindow {
		t.Errorf("session table holds %d rows, want the window's %d", at500.sessions, finishedWindow)
	}
	// The exact counts above are the contract; the live heap backs them up
	// for whatever they do not see.
	t.Logf("footprint %+v; live heap %.1f MB after 500 sessions, %.1f MB after 1500", at1500, heap500, heap1500)
	if heap1500 > 1.10*heap500 {
		t.Errorf("live heap %.1f MB after 1500 sessions, %.1f MB after 500", heap1500, heap500)
	}
	snap := e.MetricsSnapshot()
	if got := snap.SumCounters("rp.elements_out."); perSession == 0 || got != 1500*perSession {
		t.Errorf("Σ rp.elements_out.* = %d, want 1500 × %d: the fold lost counts", got, perSession)
	}
	if got := snap.Counters["sched.completed"]; got != 1500 {
		t.Errorf("sched.completed = %d, want 1500", got)
	}
	for _, r := range e.Env().Resources() {
		var sum vtime.Duration
		for _, d := range r.OwnerBusy() {
			sum += d
		}
		if sum != r.BusyTime() {
			t.Errorf("%s: owners sum to %v, busy %v", r.Name(), sum, r.BusyTime())
		}
	}
}

// TestFinishedSessionPinsNoResults: the session table keeps a finished
// session's row, not its results. Once nobody holds the session's handle its
// result log is garbage, while its row stays in the window. The probe is a
// finalizer on the log's first segment.
func TestFinishedSessionPinsNoResults(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()
	collected := make(chan struct{})
	id := func() string {
		q, err := s.Submit(`select i from integer i where i in iota(1,2000);`)
		if err != nil {
			t.Fatal(err)
		}
		<-q.Done()
		head := q.results().head.els
		if len(head) == 0 {
			t.Fatal("the session logged no rows")
		}
		runtime.SetFinalizer(&head[0], func(*sqep.Element) { close(collected) })
		return q.ID()
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(10 * time.Millisecond):
			if i < 500 {
				continue
			}
			t.Fatal("the session table keeps a finished session's result log")
		}
		break
	}
	infos := s.List()
	if len(infos) != 1 || infos[0].ID != id || infos[0].State != Done {
		t.Fatalf("List = %+v, want the finished session's row", infos)
	}
}

// TestFinishedSessionPinsNoProcess is the registry's no-pinning rule, seen
// from the served side: a session that has finished but still sits in the
// finished window (up to 256 sessions deep) keeps its metric values readable
// through sys_metrics('@qN') — and keeps none of its operator trees alive. A
// metrics block refers to nothing of the process that counts into it. The
// probe is a finalizer on the source operator of one RP: the RP itself is
// part of a cycle (its exit hook names it), and a finalizer on a cycle never
// runs.
func TestFinishedSessionPinsNoProcess(t *testing.T) {
	gate, collected := make(chan struct{}), make(chan struct{})
	e := tinyEngine(t, core.Config{Sources: map[string]sqep.SourceFunc{"gate": func(*sqep.Ctx) sqep.Operator {
		op := &gateOp{ch: gate}
		runtime.SetFinalizer(op, func(*gateOp) { close(collected) })
		return op
	}}})
	s := New(e, nil)
	defer s.Close()
	hog, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if _, err := hog.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := hog.State(); st != Done || len(s.List()) != 1 {
		t.Fatalf("the session is %v and the window holds %d: it must be finished, not yet retired", st, len(s.List()))
	}
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("a finished session in the window keeps its RP's operator tree alive")
	}
	read, err := s.Submit("select sys_metrics('@" + hog.ID() + "');")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := read.Wait()
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, r := range rows {
		name, _ := r.Value.(catalog.Tuple).Field("name")
		names[name.(string)] = true
	}
	for _, want := range []string{"rp.elements_out." + hog.ID() + "/rp-bg-1", "recv.frames." + hog.ID() + "/client", "sched.nodes." + hog.ID()} {
		if !names[want] {
			t.Errorf("sys_metrics('@%s') does not list %s: %v", hog.ID(), want, names)
		}
	}
}
