package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"scsq/internal/catalog"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// TestSysSessionsSnapshot pins the registered table against the scheduler's
// own List() view.
func TestSysSessionsSnapshot(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	q, err := s.Submit(scsql.Figure5Query(30_000, 3))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	tab, ok := e.SystemCatalog().Lookup("sys_sessions")
	if !ok {
		t.Fatal("scheduler did not register sys_sessions")
	}
	rows, err := tab.Snap("")
	if err != nil {
		t.Fatalf("snap: %v", err)
	}
	if len(rows) != len(s.List()) {
		t.Fatalf("sys_sessions has %d rows, List() %d", len(rows), len(s.List()))
	}
	id, _ := rows[0].Field("id")
	state, _ := rows[0].Field("state")
	if id != q.ID() || state != "done" {
		t.Fatalf("row = %s, want id=%s state=done", rows[0], q.ID())
	}
}

// TestCatalogSnapshotsUnderLoad hammers the lock-safe snapshot providers
// (sys_sessions, sys_rps, sys_nodes, sys_links, sys_metrics) from multiple
// goroutines while a k=2 multi-tenant run is in flight, its progress ticking
// the policy clock concurrently. Run under -race this is the catalog
// determinism guard: snapshots must never race with the scheduler,
// coordinators, cndb or the metrics registry.
func TestCatalogSnapshotsUnderLoad(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range []string{"sys_sessions", "sys_rps", "sys_nodes", "sys_links", "sys_metrics"} {
		tab, ok := e.SystemCatalog().Lookup(name)
		if !ok {
			t.Fatalf("table %s not registered", name)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := tab.Snap(""); err != nil {
						t.Errorf("%s snap: %v", tab.Name, err)
						return
					}
				}
			}
		}()
	}

	a, err := s.Submit(scsql.Figure5Query(30_000, 40))
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := s.Submit(scsql.Figure5Query(60_000, 40))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if _, err := a.Wait(); err != nil {
		t.Fatalf("a: %v", err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatalf("b: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestSubscribeVTimeCoalesceAndClose pins the subscription contract: ticks
// coalesce (buffer of one, never blocking the emitting process), cancel is
// idempotent with concurrent ticks, and Close ends every subscription.
func TestSubscribeVTimeCoalesceAndClose(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)

	tick, cancel := s.SubscribeVTime(nil)
	s.tickSubscribers()
	s.tickSubscribers() // coalesces into the one buffered slot
	<-tick
	select {
	case <-tick:
		t.Fatal("second tick was not coalesced")
	default:
	}
	cancel()
	if _, ok := <-tick; ok {
		t.Fatal("cancelled subscription still delivers")
	}
	cancel() // idempotent

	tick2, _ := s.SubscribeVTime(nil)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, ok := <-tick2; ok {
		t.Fatal("Close did not end the subscription")
	}
	s.tickSubscribers() // after Close: must not panic
}

// TestFinishedReadHandsItsIDBack: a catalog read is a session while it runs;
// once it has left the table its id goes back, so the sessions around any
// number of reads number q1, q2, ... as if none had run.
func TestFinishedReadHandsItsIDBack(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()
	for _, want := range []string{"q1", "q2"} {
		for range 3 {
			r, err := s.Submit(`select sys_sessions();`)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Wait(); err != nil {
				t.Fatal(err)
			}
			if r.ID() != want {
				t.Errorf("read ran as %s, want %s: the read before it kept its id", r.ID(), want)
			}
		}
		q, err := s.Submit(scsql.Figure5Query(30_000, 3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Wait(); err != nil {
			t.Fatal(err)
		}
		if q.ID() != want {
			t.Errorf("session after three reads is %s, want %s", q.ID(), want)
		}
	}
}

// TestCatalogReadSkipsAdmission: a statement that only reads the system
// catalog leases no node, so it answers in exactly the states it is asked
// about — a head waiting for the nodes a gated hog holds, the queue at its
// cap — lists the blocked session, and leaves the session table as it ends.
// Anything that could hold a node or never end still queues.
func TestCatalogReadSkipsAdmission(t *testing.T) {
	e, release := gatedEngine(t)
	defer release()
	s := New(e, nil, Config{QueueCap: 1})
	defer s.Close()

	hog, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatalf("submit hog: %v", err)
	}
	blocked, err := s.Submit(scsql.Figure5Query(30_000, 3))
	if err != nil {
		t.Fatalf("submit blocked: %v", err)
	}
	if st := blocked.State(); st != Queued {
		t.Fatalf("second session is %v, want queued behind the hog", st)
	}
	for _, src := range []string{scsql.Figure5Query(30_000, 2), `select streamof(sys_sessions());`, `select count(iota(1,10));`} {
		if _, err := s.Submit(src); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit %q into the full queue: %v, want ErrQueueFull", src, err)
		}
	}

	read := func(src string) []sqep.Element {
		t.Helper()
		r, err := s.Submit(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		select {
		case <-r.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still %v after 10 s behind a blocked head", src, r.State())
		}
		els, err := r.Wait()
		if err != nil || r.State() != Done {
			t.Fatalf("%s: state %v, err %v", src, r.State(), err)
		}
		for _, in := range s.List() {
			if in.ID == r.ID() {
				t.Errorf("%s: finished reader %s is still a row of the session table", src, r.ID())
			}
		}
		return els
	}
	states := map[any]any{}
	for _, el := range read(`select sys_sessions();`) {
		row := el.Value.(catalog.Tuple)
		id, _ := row.Field("id")
		states[id], _ = row.Field("state")
	}
	if hs := states[hog.ID()]; len(states) != 3 || (hs != "admitted" && hs != "running") || states[blocked.ID()] != "queued" {
		t.Errorf("sys_sessions = %v, want %s admitted or running, %s queued and the reader itself", states, hog.ID(), blocked.ID())
	}
	if els := read(`select s.id from stream s where s in sys_sessions() and s.state = 'queued';`); len(els) != 1 || els[0].Value != blocked.ID() {
		t.Errorf("queued sessions = %v, want [%s]", els, blocked.ID())
	}
	if got := lastValue(t, read(`select count(sys_metrics('sched.'));`)); got == int64(0) {
		t.Error("sys_metrics('sched.') is empty")
	}
	if n := len(s.List()); n != 2 {
		t.Errorf("session table holds %d rows after the reads, want the hog and the blocked session", n)
	}
	snap := e.MetricsSnapshot()
	if got := snap.Counters["sched.rejected"]; got != 3 {
		t.Errorf("sched.rejected = %d, want 3: the readers were not to be rejected", got)
	}
	if got := snap.Counters["sched.admitted"]; got != 1 {
		t.Errorf("sched.admitted = %d, want 1: a reader is not admitted", got)
	}

	release()
	if _, err := hog.Wait(); err != nil {
		t.Fatalf("hog: %v", err)
	}
	els, err := blocked.Wait()
	if err != nil || lastValue(t, els) != int64(3) {
		t.Fatalf("blocked session after the reads: %v, %v; want the count 3", els, err)
	}
}

// TestPolicyClockIsMonotone: an older observation never rewinds the policy
// clock and wakes no live stream, and observers racing each other leave it
// at the largest time any of them saw, never lower on the way.
func TestPolicyClockIsMonotone(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()
	tick, cancel := s.SubscribeVTime(nil)
	defer cancel()

	s.ObserveVTime(50)
	<-tick
	s.ObserveVTime(20)
	if now := s.now(); now != 50 {
		t.Fatalf("clock = %v after observing 50 then 20, want 50", now)
	}
	select {
	case <-tick:
		t.Fatal("an observation older than the clock woke the live streams")
	default:
	}

	// Each observer climbs through its own interleaved times, so the
	// observers keep overtaking one another.
	const observers, each = 4, 50_000
	at := func(g, i int) vtime.Time { return vtime.Time(100 + i*observers + g) }
	want := at(observers-1, each-1)
	stop := make(chan struct{})
	read := make(chan error)
	go func() {
		var last vtime.Time
		for {
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
			now := s.now()
			if now < last {
				read <- fmt.Errorf("clock went back from %v to %v", last, now)
				return
			}
			last = now
		}
	}()
	var wg sync.WaitGroup
	for g := range observers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				s.ObserveVTime(at(g, i))
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if now := s.now(); now != want {
		t.Fatalf("clock = %v after concurrent observers, want their maximum %v", now, want)
	}
}

// TestAdmissionRaisesPolicyClock: a session that streams arrays out to the
// client ends with its last element well after its RP's last emit, so the
// kernel then stands past the policy clock, which sees only what RPs emit.
// Admission first raises the clock to the kernel's time, so once the next
// session is admitted the clock stands at or past the first session's last
// element, and the second session's age_ns counts from its own start, not
// from the gap.
func TestAdmissionRaisesPolicyClock(t *testing.T) {
	e, release := gatedEngine(t)
	defer release()
	s := New(e, nil)
	defer s.Close()

	first, err := s.Submit(`select extract(a) from sp a where a=sp(gen_array(300000,3),'bg',1);`)
	if err != nil {
		t.Fatal(err)
	}
	els, err := first.Wait()
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	var last vtime.Time
	for _, el := range els {
		last = max(last, el.At)
	}

	second, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.State(); st != Running {
		t.Fatalf("second = %v, want running behind its gate", st)
	}
	start := s.now()
	if start < last {
		t.Fatalf("clock %v after admission, want at or past the first session's last element %v", start, last)
	}
	s.ObserveVTime(start.Add(vtime.Millisecond))
	tab, _ := e.SystemCatalog().Lookup("sys_sessions")
	rows, err := tab.Snap("")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if id, _ := row.Field("id"); id != second.ID() {
			continue
		}
		if age, _ := row.Field("age_ns"); age != int64(vtime.Millisecond) {
			t.Fatalf("second's age_ns = %v one millisecond after its start, want %d", age, int64(vtime.Millisecond))
		}
		release()
		if _, err := second.Wait(); err != nil {
			t.Fatalf("second: %v", err)
		}
		return
	}
	t.Fatalf("sys_sessions %v has no row for %s", rows, second.ID())
}
