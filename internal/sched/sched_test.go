package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"scsq/internal/chaos"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
)

func newTestEngine(t *testing.T, opts ...core.Option) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(opts...)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// tinyEngine builds an engine over a 2-node BlueGene partition, so a single
// Figure-5 query (explicit nodes 0 and 1) occupies the whole partition and
// the next one must queue.
func tinyEngine(t *testing.T, opts ...core.Option) *core.Engine {
	t.Helper()
	env, err := hw.NewLOFAR(hw.Config{Torus: [3]int{2, 1, 1}, PsetSize: 2, BackEndNodes: 1, FrontEndNodes: 1})
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	return newTestEngine(t, append([]core.Option{core.Config{Env: env}}, opts...)...)
}

// lastValue unwraps the single scalar a count-style query produces.
func lastValue(t *testing.T, els []sqep.Element) any {
	t.Helper()
	if len(els) == 0 {
		t.Fatal("query produced no elements")
	}
	return els[len(els)-1].Value
}

func TestLifecycleDone(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	q, err := s.Submit(scsql.Figure5Query(30_000, 5))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	els, err := q.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got, want := lastValue(t, els), int64(5); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
	if st := q.State(); st != Done {
		t.Fatalf("state = %v, want done", st)
	}
	if q.Makespan() <= 0 {
		t.Fatal("makespan not recorded")
	}
	if n := e.LeaseCount(q.ID()); n != 0 {
		t.Fatalf("completed query still holds %d leases", n)
	}
	snap := e.MetricsSnapshot()
	if got := snap.Counters["sched.admitted"]; got != 1 {
		t.Fatalf("sched.admitted = %d, want 1", got)
	}
	if got := snap.Counters["sched.completed"]; got != 1 {
		t.Fatalf("sched.completed = %d, want 1", got)
	}
	infos := s.List()
	if len(infos) != 1 || infos[0].State != Done || infos[0].Nodes != 0 {
		t.Fatalf("List = %+v, want one done row with zero nodes", infos)
	}
}

func TestDefStatementExecutesInline(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	q, err := s.Submit(scsql.Radix2Def)
	if err != nil {
		t.Fatalf("submit def: %v", err)
	}
	if st := q.State(); st != Done {
		t.Fatalf("def state = %v, want done", st)
	}
	if _, ok := s.Catalog().Lookup("radix2"); !ok {
		t.Fatal("definition did not reach the catalog")
	}
}

func TestSyntaxErrorSynchronous(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()
	if _, err := s.Submit("select from from;"); err == nil {
		t.Fatal("syntax error not reported")
	}
	if len(s.List()) != 0 {
		t.Fatal("failed parse left a session behind")
	}
}

func TestAdmissionQueuesThenAdmits(t *testing.T) {
	e, release := gatedEngine(t)
	defer release()
	s := New(e, nil)
	defer s.Close()

	// The gated hog holds the partition until released, so the second
	// submission finds it full by construction — however fast the data
	// plane is, a sized query is only probably still running.
	a, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := s.Submit(scsql.Figure5Query(30_000, 3))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if st := b.State(); st != Queued {
		t.Fatalf("b state right after submit = %v, want queued", st)
	}
	release()
	if _, err := a.Wait(); err != nil {
		t.Fatalf("a: %v", err)
	}
	els, err := b.Wait()
	if err != nil {
		t.Fatalf("b was never admitted: %v", err)
	}
	if got, want := lastValue(t, els), int64(3); got != want {
		t.Fatalf("b count = %v, want %v", got, want)
	}
	if b.AdmissionWait() <= 0 {
		t.Fatal("queued session recorded no admission wait")
	}
}

func TestPriorityAdmitsFirst(t *testing.T) {
	e, release := gatedEngine(t)
	defer release()
	s := New(e, nil)
	defer s.Close()

	a, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	c, err := s.Submit(scsql.Figure5Query(30_000, 2), SubmitConfig{Priority: 1})
	if err != nil {
		t.Fatalf("submit c: %v", err)
	}
	release()
	if _, err := a.Wait(); err != nil {
		t.Fatalf("a: %v", err)
	}
	// c outranks b, so b can only have been admitted after c completed.
	if _, err := b.Wait(); err != nil {
		t.Fatalf("b: %v", err)
	}
	if st := c.State(); st != Done {
		t.Fatalf("low-priority b finished while high-priority c is %v", st)
	}
}

func TestUnsatisfiableSequenceRejected(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	// Both SPs demand BG node 0; the second can never be placed (BlueGene
	// nodes are exclusive), even on an idle system.
	src := `
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(30000,2), 'bg', 0);`
	q, err := s.Submit(src)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Wait(); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	if st := q.State(); st != Failed {
		t.Fatalf("state = %v, want failed", st)
	}
	if n := e.LeaseCount(q.ID()); n != 0 {
		t.Fatalf("rejected query holds %d leases", n)
	}
}

func TestQueueCapRejects(t *testing.T) {
	e, release := gatedEngine(t)
	defer release()
	s := New(e, nil, Config{QueueCap: 1})
	defer s.Close()

	a, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	if _, err := s.Submit(scsql.Figure5Query(30_000, 2)); err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if _, err := s.Submit(scsql.Figure5Query(30_000, 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := e.MetricsSnapshot().Counters["sched.rejected"]; got != 1 {
		t.Fatalf("sched.rejected = %d, want 1", got)
	}
	release()
	_, _ = a.Wait()
}

func TestCancelQueued(t *testing.T) {
	e := tinyEngine(t)
	s := New(e, nil)
	defer s.Close()

	a, err := s.Submit(scsql.Figure5Query(30_000, 500))
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if err := s.Cancel(b.ID()); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if _, err := b.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("b err = %v, want ErrCancelled", err)
	}
	els, err := a.Wait()
	if err != nil {
		t.Fatalf("a perturbed by b's cancellation: %v", err)
	}
	if got, want := lastValue(t, els), int64(500); got != want {
		t.Fatalf("a count = %v, want %v", got, want)
	}
	if err := s.Cancel(b.ID()); !errors.Is(err, ErrQueryFinished) {
		t.Fatalf("re-cancel err = %v, want ErrQueryFinished", err)
	}
	if err := s.Cancel("q99"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("unknown err = %v, want ErrUnknownQuery", err)
	}
}

// TestCancelRacesAdmission hammers the claim/cancel handshake: a queued
// session is cancelled while the admission loop may be mid-claim or
// mid-build on it (a third submission drives the loop concurrently with the
// cancel, so the head is repeatedly claimed, build-failed, and re-inserted).
// Guards against double finalization — double Retire, a Cancelled state
// overwritten to Admitted, and close-of-closed-channel panics.
func TestCancelRacesAdmission(t *testing.T) {
	for i := 0; i < 15; i++ {
		e := tinyEngine(t)
		s := New(e, nil)

		a, err := s.Submit(scsql.Figure5Query(30_000, 100))
		if err != nil {
			t.Fatalf("submit a: %v", err)
		}
		b, err := s.Submit(scsql.Figure5Query(30_000, 2))
		if err != nil {
			t.Fatalf("submit b: %v", err)
		}
		var (
			wg sync.WaitGroup
			c  *Query
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := s.Cancel(b.ID()); err != nil && !errors.Is(err, ErrQueryFinished) {
				t.Errorf("cancel b: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			var err error
			c, err = s.Submit(scsql.Figure5Query(30_000, 2))
			if err != nil {
				t.Errorf("submit c: %v", err)
			}
		}()
		wg.Wait()
		if _, err := a.Wait(); err != nil {
			t.Fatalf("a perturbed: %v", err)
		}
		<-b.Done()
		if st := b.State(); !st.Final() || st == Failed {
			t.Fatalf("b state = %v (err %v), want cancelled or done", st, b.Err())
		}
		if c != nil {
			if _, err := c.Wait(); err != nil {
				t.Fatalf("c: %v", err)
			}
		}
		if n := e.LeaseCount(b.ID()); b.State() == Cancelled && n != 0 {
			t.Fatalf("cancelled b still holds %d leases", n)
		}
		s.Close()
	}
}

// TestCancelRunningReleasesLeases is the acceptance scenario: two concurrent
// Query-1 instances; cancelling one mid-stream releases its node
// reservations (visible in the session table and the lease table) without
// perturbing the survivor's result. The victim streams 200 000 arrays — 12 GB
// it cannot finish before the cancel, so it is mid-stream by construction
// (200 arrays were over before the survivor was submitted one run in four).
func TestCancelRunningReleasesLeases(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	q1src, err := scsql.InboundQuery(1, 2, 30_000, 200_000)
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	victim, err := s.Submit(q1src)
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	shortSrc, err := scsql.InboundQuery(1, 2, 30_000, 10)
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	survivor, err := s.Submit(shortSrc)
	if err != nil {
		t.Fatalf("submit survivor: %v", err)
	}

	// Both queries hold reservations while live.
	if victim.Nodes() == 0 {
		t.Fatal("victim holds no leases while admitted")
	}
	if err := s.Cancel(victim.ID()); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	if _, err := victim.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("victim err = %v, want ErrCancelled", err)
	}
	if n := victim.Nodes(); n != 0 {
		t.Fatalf("cancelled query still holds %d leases", n)
	}
	for _, in := range s.List() {
		if in.ID == victim.ID() && in.State != Cancelled {
			t.Fatalf("session table shows victim as %v", in.State)
		}
	}

	els, err := survivor.Wait()
	if err != nil {
		t.Fatalf("survivor perturbed by cancellation: %v", err)
	}
	if got, want := lastValue(t, els), int64(2*10); got != want {
		t.Fatalf("survivor count = %v, want %v", got, want)
	}
	if n := survivor.Nodes(); n != 0 {
		t.Fatalf("survivor still holds %d leases after completion", n)
	}
}

// TestConcurrentBeatsSerialized is the throughput acceptance criterion: two
// concurrent Query-1 instances must both complete, with aggregate bandwidth
// strictly greater than running them back to back — i.e. the makespan of
// the concurrent pair is strictly below twice the single-query makespan.
func TestConcurrentBeatsSerialized(t *testing.T) {
	const n, size, count = 2, 30_000, 20
	src, err := scsql.InboundQuery(1, n, size, count)
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}

	// Serialized baseline: one query alone on a fresh engine.
	eBase := newTestEngine(t)
	sBase := New(eBase, nil)
	qb, err := sBase.Submit(src)
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	if _, err := qb.Wait(); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	t1 := qb.Makespan()
	sBase.Close()

	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()
	qa, err := s.Submit(src)
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	qc, err := s.Submit(src)
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if _, err := qa.Wait(); err != nil {
		t.Fatalf("a: %v", err)
	}
	if _, err := qc.Wait(); err != nil {
		t.Fatalf("b: %v", err)
	}
	tmax := qa.Makespan()
	if qc.Makespan() > tmax {
		tmax = qc.Makespan()
	}
	if tmax >= 2*t1 {
		t.Fatalf("concurrent makespan %v not better than serialized %v", tmax, 2*t1)
	}
	t.Logf("t1=%v tmax=%v speedup=%.2fx", t1, tmax, 2*float64(t1)/float64(tmax))
}

// TestParallelSubmissionsRace exercises the scheduler under the race
// detector: N goroutines submit concurrently and every query completes with
// the right result.
func TestParallelSubmissionsRace(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, err := scsql.InboundQuery(1, 2, 30_000, 5)
			if err != nil {
				errs[i] = err
				return
			}
			q, err := s.Submit(src)
			if err != nil {
				errs[i] = err
				return
			}
			els, err := q.Wait()
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", q.ID(), err)
				return
			}
			if got := els[len(els)-1].Value; got != int64(10) {
				errs[i] = fmt.Errorf("%s: count = %v, want 10", q.ID(), got)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := e.MetricsSnapshot().Counters["sched.completed"]; got != n {
		t.Fatalf("sched.completed = %d, want %d", got, n)
	}
}

// TestChaosReplacementIsolation proves tenant isolation under failure: a
// seeded crash kills one node of the victim query's generator pool; the
// supervisor re-places that generator inside the victim's own allocation
// sequence, the victim's result stays exact, and the co-resident query —
// placed in disjoint psets — is never touched (exactly one replacement
// happens engine-wide, and the survivor's result and leases are unaffected).
func TestChaosReplacementIsolation(t *testing.T) {
	victimSrc := `
select extract(c) from
bag of sp a, sp c
where c=sp(streamof(count(merge(a))), 'bg', 8)
and   a=spv((select gen_array(30000,6) from integer i where i in iota(1,2)), 'bg', inPset(0));`
	survivorSrc := `
select extract(c) from
bag of sp a, sp c
where c=sp(streamof(count(merge(a))), 'bg', 24)
and   a=spv((select gen_array(30000,6) from integer i where i in iota(1,2)), 'bg', inPset(2));`

	run := func() (victimCount, survivorCount any, replacements int64) {
		// Kill the victim's first generator (BG node 0) after two sends.
		inj := chaos.New(42, chaos.CrashAfterSends(hw.BlueGene, 0, 2))
		budget := 2
		e := newTestEngine(t, core.Config{Chaos: inj, Supervision: &budget})
		s := New(e, nil)
		defer s.Close()

		v, err := s.Submit(victimSrc)
		if err != nil {
			t.Fatalf("submit victim: %v", err)
		}
		u, err := s.Submit(survivorSrc)
		if err != nil {
			t.Fatalf("submit survivor: %v", err)
		}
		vEls, err := v.Wait()
		if err != nil {
			t.Fatalf("victim did not recover: %v", err)
		}
		uEls, err := u.Wait()
		if err != nil {
			t.Fatalf("survivor failed: %v", err)
		}
		snap := e.MetricsSnapshot()
		return lastValue(t, vEls), lastValue(t, uEls), snap.Counters["supervisor.replacements"]
	}

	vc, sc, repl := run()
	if got, want := vc, int64(12); got != want {
		t.Fatalf("victim count = %v, want %v", got, want)
	}
	if got, want := sc, int64(12); got != want {
		t.Fatalf("survivor count = %v, want %v", got, want)
	}
	if repl != 1 {
		t.Fatalf("supervisor.replacements = %d, want exactly 1 (survivor must not be re-placed)", repl)
	}
	// Same seed, same outcome: the recovery is deterministic.
	vc2, sc2, repl2 := run()
	if vc2 != vc || sc2 != sc || repl2 != repl {
		t.Fatalf("rerun diverged: (%v,%v,%d) vs (%v,%v,%d)", vc2, sc2, repl2, vc, sc, repl)
	}
}

func TestCloseCancelsLiveSessions(t *testing.T) {
	e := tinyEngine(t)
	s := New(e, nil)

	a, err := s.Submit(scsql.Figure5Query(30_000, 500))
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not unwind the live sessions")
	}
	if st := a.State(); !st.Final() {
		t.Fatalf("a still %v after Close", st)
	}
	if st := b.State(); !st.Final() {
		t.Fatalf("b still %v after Close", st)
	}
	if _, err := s.Submit(scsql.Figure5Query(30_000, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close err = %v, want ErrClosed", err)
	}
}
