package sched

import (
	"errors"
	"sync"
	"testing"

	"scsq/internal/chaos"
	"scsq/internal/core"
	"scsq/internal/hw"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// gateOp is a source operator that blocks in Next until its channel is
// closed, then ends its stream. It pins a session in Running for exactly as
// long as the test wants, making deadline and shedding scenarios
// deterministic: the gated hog cannot complete before the test releases it.
// A cancel (user or deadline) has to reach it through the query's cancel
// signal: a source has no inbox to poison, so a gate that waited on its
// channel alone would hold the cancelled session's Drain until release.
//
// It waits outside the engine's kernel (vtime.Wait), so other sessions'
// processes keep their turns meanwhile.
type gateOp struct {
	ch     <-chan struct{}
	cancel sqep.CancelSignal
	agent  *vtime.Agent
	fired  bool
}

func (g *gateOp) Open(ctx *sqep.Ctx) error {
	g.cancel, g.agent = ctx.Cancel, ctx.Agent
	return nil
}

func (g *gateOp) Next() (sqep.Element, bool, error) {
	if g.fired {
		return sqep.Element{}, false, nil
	}
	g.fired = true
	vtime.Wait(g.agent, vtime.Tick, g.ch, g.cancel.Done())
	select {
	case <-g.cancel.Done():
		return sqep.Element{}, false, g.cancel.Cause()
	default:
		return sqep.Element{}, false, nil
	}
}

func (g *gateOp) Close() error { return nil }

// gatedEngine is tinyEngine (2-node BG partition) plus a 'gate' source whose
// streams block until the returned release function is called. A Figure5-
// shaped query over the gate occupies both BG nodes for the duration.
func gatedEngine(t *testing.T, opts ...core.Option) (*core.Engine, func()) {
	t.Helper()
	ch := make(chan struct{})
	released := false
	src := func(*sqep.Ctx) sqep.Operator { return &gateOp{ch: ch} }
	e := tinyEngine(t, append([]core.Option{core.Config{Sources: map[string]sqep.SourceFunc{"gate": src}}}, opts...)...)
	return e, func() {
		if !released {
			released = true
			close(ch)
		}
	}
}

const gateHogSrc = `
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(receiver('gate'), 'bg', 1);`

func TestQueueDeadlineExpiresQueuedSession(t *testing.T) {
	e, release := gatedEngine(t)
	defer release()
	s := New(e, nil)
	defer s.Close()

	hog, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatalf("submit hog: %v", err)
	}
	b, err := s.Submit(scsql.Figure5Query(30_000, 2), SubmitConfig{QueueTTL: vtime.Millisecond})
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if st := b.State(); st != Queued {
		t.Fatalf("b state = %v, want queued behind the hog", st)
	}
	// Advance the policy clock past b's deadline; nothing else ticks it.
	s.ObserveVTime(vtime.Time(2 * vtime.Millisecond))
	if _, err := b.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("b err = %v, want ErrDeadlineExceeded", err)
	}
	if st := b.State(); st != Expired {
		t.Fatalf("b state = %v, want expired", st)
	}
	if n := e.LeaseCount(b.ID()); n != 0 {
		t.Fatalf("expired-from-queue session holds %d leases", n)
	}
	if got := e.MetricsSnapshot().Counters["sched.expired"]; got != 1 {
		t.Fatalf("sched.expired = %d, want 1", got)
	}
	release()
	if _, err := hog.Wait(); err != nil {
		t.Fatalf("hog perturbed by b's expiry: %v", err)
	}
}

func TestRunDeadlineExpiresRunningSession(t *testing.T) {
	e, release := gatedEngine(t)
	defer release()
	s := New(e, nil)
	defer s.Close()

	hog, err := s.Submit(gateHogSrc, SubmitConfig{RunTTL: vtime.Millisecond})
	if err != nil {
		t.Fatalf("submit hog: %v", err)
	}
	if st := hog.State(); st != Admitted && st != Running {
		t.Fatalf("hog state = %v, want admitted/running", st)
	}
	s.ObserveVTime(vtime.Time(2 * vtime.Millisecond))
	if _, err := hog.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("hog err = %v, want ErrDeadlineExceeded", err)
	}
	if st := hog.State(); st != Expired {
		t.Fatalf("hog state = %v, want expired", st)
	}
	if n := e.LeaseCount(hog.ID()); n != 0 {
		t.Fatalf("expired running session still holds %d leases", n)
	}
	// The expiry went through the cancel/poison path, so the partition is
	// whole again: a fresh session admits and completes.
	q, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit after expiry: %v", err)
	}
	els, err := q.Wait()
	if err != nil {
		t.Fatalf("post-expiry session: %v", err)
	}
	if got := lastValue(t, els); got != int64(2) {
		t.Fatalf("count = %v, want 2", got)
	}
}

func TestTransientAdmissionRetriesThenAdmits(t *testing.T) {
	inj := chaos.New(1)
	e := tinyEngine(t, core.Config{Chaos: inj})
	s := New(e, nil, Config{AdmissionRetry: AdmissionRetryPolicy{MaxRetries: 3, Base: vtime.Millisecond, Max: 8 * vtime.Millisecond}})
	defer s.Close()

	// Node 1 is dead on an otherwise idle system: Figure 5 (which demands
	// nodes 0 and 1) is unsatisfiable *now*, but the capacity may return.
	inj.KillNode(hw.BlueGene, 1)
	q, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := q.State(); st != Queued {
		t.Fatalf("state = %v, want queued (parked for retry)", st)
	}
	if got := e.MetricsSnapshot().Counters["sched.retried"]; got != 1 {
		t.Fatalf("sched.retried = %d, want 1", got)
	}
	// The node comes back; the next backoff alarm re-attempts admission.
	if err := e.ReviveNode(hw.BlueGene, 1); err != nil {
		t.Fatalf("revive: %v", err)
	}
	s.ObserveVTime(vtime.Time(vtime.Millisecond))
	els, err := q.Wait()
	if err != nil {
		t.Fatalf("retried session failed: %v", err)
	}
	if got := lastValue(t, els); got != int64(2) {
		t.Fatalf("count = %v, want 2", got)
	}
	if in := s.List()[0]; in.Retries != 1 {
		t.Fatalf("retries = %d, want 1", in.Retries)
	}
}

func TestTransientAdmissionRetriesExhaust(t *testing.T) {
	inj := chaos.New(1)
	e := tinyEngine(t, core.Config{Chaos: inj})
	s := New(e, nil, Config{AdmissionRetry: AdmissionRetryPolicy{MaxRetries: 2, Base: vtime.Millisecond, Max: 8 * vtime.Millisecond}})
	defer s.Close()

	inj.KillNode(hw.BlueGene, 1)
	q, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Walk the clock through both backoffs: park(1ms) → retry → park(2ms)
	// → retry → exhausted.
	for _, tick := range []vtime.Time{vtime.Time(vtime.Millisecond), vtime.Time(4 * vtime.Millisecond)} {
		s.ObserveVTime(tick)
	}
	_, err = q.Wait()
	if !errors.Is(err, ErrUnsatisfiable) || !errors.Is(err, ErrUnsatisfiableNow) {
		t.Fatalf("err = %v, want transient ErrUnsatisfiable chain", err)
	}
	if errors.Is(err, ErrUnsatisfiablePlan) {
		t.Fatalf("err = %v classified permanent, want transient", err)
	}
	if st := q.State(); st != Failed {
		t.Fatalf("state = %v, want failed", st)
	}
	if got := e.MetricsSnapshot().Counters["sched.retried"]; got != 2 {
		t.Fatalf("sched.retried = %d, want 2", got)
	}
}

func TestPermanentUnsatisfiableIsNotRetried(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil, Config{AdmissionRetry: AdmissionRetryPolicy{MaxRetries: 5}})
	defer s.Close()

	// Two exclusive placements on the same BG node: exceeds the topology,
	// dead nodes or not.
	src := `
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(30000,2), 'bg', 0);`
	q, err := s.Submit(src)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	_, err = q.Wait()
	if !errors.Is(err, ErrUnsatisfiable) || !errors.Is(err, ErrUnsatisfiablePlan) {
		t.Fatalf("err = %v, want permanent ErrUnsatisfiable chain", err)
	}
	if got := e.MetricsSnapshot().Counters["sched.retried"]; got != 0 {
		t.Fatalf("sched.retried = %d, want 0 (permanent failures never park)", got)
	}
}

func TestLoadSheddingEvictsLowestPriority(t *testing.T) {
	e, release := gatedEngine(t)
	defer release()
	s := New(e, nil, Config{QueueCap: 1, LoadShedding: true})
	defer s.Close()

	hog, err := s.Submit(gateHogSrc)
	if err != nil {
		t.Fatalf("submit hog: %v", err)
	}
	b, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	// Equal priority cannot shed: the queue is full, so d is rejected.
	if _, err := s.Submit(scsql.Figure5Query(30_000, 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("equal-priority err = %v, want ErrQueueFull", err)
	}
	// Strictly higher priority sheds the queued b and takes its place.
	c, err := s.Submit(scsql.Figure5Query(30_000, 3), SubmitConfig{Priority: 1})
	if err != nil {
		t.Fatalf("submit c: %v", err)
	}
	if _, err := b.Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("b err = %v, want ErrShed", err)
	}
	if st := b.State(); st != Shed {
		t.Fatalf("b state = %v, want shed", st)
	}
	snap := e.MetricsSnapshot()
	if got := snap.Counters["sched.shed"]; got != 1 {
		t.Fatalf("sched.shed = %d, want 1", got)
	}
	if got := snap.Counters["sched.rejected"]; got != 1 {
		t.Fatalf("sched.rejected = %d, want 1", got)
	}
	release()
	if _, err := hog.Wait(); err != nil {
		t.Fatalf("hog: %v", err)
	}
	els, err := c.Wait()
	if err != nil {
		t.Fatalf("c: %v", err)
	}
	if got := lastValue(t, els); got != int64(3) {
		t.Fatalf("c count = %v, want 3", got)
	}
}

// gatedGen is gen_array whose first element waits for ch: a hog built on it
// reports no progress until the test has queued what that progress must
// expire.
type gatedGen struct {
	*sqep.GenArray
	ch    <-chan struct{}
	agent *vtime.Agent
}

func (g *gatedGen) Open(ctx *sqep.Ctx) error {
	g.agent = ctx.Agent
	return g.GenArray.Open(ctx)
}

func (g *gatedGen) Next() (sqep.Element, bool, error) {
	if g.ch != nil {
		vtime.Wait(g.agent, vtime.Tick, g.ch, nil)
		g.ch = nil
	}
	return g.GenArray.Next()
}

// TestDeadlinesDrivenByEngineProgress is the clock-source determinism check:
// a queued session's deadline expires purely from the running hog's progress
// — the test never calls ObserveVTime and no policy decision reads the wall
// clock — and two identical runs produce the identical terminal tally. The
// hog is Figure 5 (200 arrays) held at its first element until b is queued:
// b's deadline is then 200 µs of the hog's progress however far the hog
// would otherwise have run before b's Submit.
func TestDeadlinesDrivenByEngineProgress(t *testing.T) {
	run := func() (hogState, bState State, bErr error) {
		ch := make(chan struct{})
		e := tinyEngine(t, core.Config{Sources: map[string]sqep.SourceFunc{"gen": func(*sqep.Ctx) sqep.Operator {
			return &gatedGen{GenArray: sqep.NewGenArray(30_000, 200), ch: ch}
		}}})
		s := New(e, nil)
		defer s.Close()
		release := sync.OnceFunc(func() { close(ch) })
		defer release()
		hog, err := s.Submit(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(receiver('gen'), 'bg', 1);`)
		if err != nil {
			t.Fatalf("submit hog: %v", err)
		}
		b, err := s.Submit(scsql.Figure5Query(30_000, 2), SubmitConfig{QueueTTL: 200 * vtime.Microsecond})
		if err != nil {
			t.Fatalf("submit b: %v", err)
		}
		release()
		if _, err := hog.Wait(); err != nil {
			t.Fatalf("hog: %v", err)
		}
		_, bErr = b.Wait()
		return hog.State(), b.State(), bErr
	}
	h1, b1, e1 := run()
	if h1 != Done {
		t.Fatalf("hog state = %v, want done", h1)
	}
	if b1 != Expired || !errors.Is(e1, ErrDeadlineExceeded) {
		t.Fatalf("b = %v (%v), want expired by the hog's progress", b1, e1)
	}
	h2, b2, e2 := run()
	if h2 != h1 || b2 != b1 || errors.Is(e2, ErrDeadlineExceeded) != errors.Is(e1, ErrDeadlineExceeded) {
		t.Fatalf("rerun diverged: (%v,%v,%v) vs (%v,%v,%v)", h2, b2, e2, h1, b1, e1)
	}
}

// TestRunTTLCountsFromTheSessionsStart: a session that streams arrays out to
// the client ends with its last element ≈ 21 ms after its RP's last emit, so
// the kernel then stands past the policy clock, which sees only what RPs
// emit. A second such session with a 10 ms run TTL runs ≈ 2.25 ms of RP
// progress from its start: admission raises the policy clock to the
// kernel's time first, so it completes instead of losing the gap.
func TestRunTTLCountsFromTheSessionsStart(t *testing.T) {
	e := newTestEngine(t)
	s := New(e, nil)
	defer s.Close()
	const src = `select extract(a) from sp a where a=sp(gen_array(300000,3),'bg',1);`
	first, err := s.Submit(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(); err != nil {
		t.Fatalf("first: %v", err)
	}
	second, err := s.Submit(src, SubmitConfig{RunTTL: 10 * vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Wait(); err != nil || second.State() != Done {
		t.Fatalf("second = %v (%v), want done within its own 10 ms", second.State(), err)
	}
}

// TestResilienceOptionsOffAreInert asserts the features-off contract: a
// scheduler with shedding and retry enabled but no TTLs and a non-full
// queue produces the identical virtual schedule as a default scheduler.
func TestResilienceOptionsOffAreInert(t *testing.T) {
	run := func(opts ...Option) vtime.Time {
		e := tinyEngine(t)
		s := New(e, nil, opts...)
		defer s.Close()
		q, err := s.Submit(scsql.Figure5Query(30_000, 10))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := q.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
		return q.Makespan()
	}
	base := run()
	armed := run(Config{LoadShedding: true, AdmissionRetry: AdmissionRetryPolicy{MaxRetries: 3}})
	if base != armed {
		t.Fatalf("resilience options perturbed an untouched schedule: %v vs %v", armed, base)
	}
}

func TestCancelParkedSession(t *testing.T) {
	inj := chaos.New(1)
	e := tinyEngine(t, core.Config{Chaos: inj})
	s := New(e, nil, Config{AdmissionRetry: AdmissionRetryPolicy{MaxRetries: 10}})
	defer s.Close()

	inj.KillNode(hw.BlueGene, 1)
	q, err := s.Submit(scsql.Figure5Query(30_000, 2))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Cancel(q.ID()); err != nil {
		t.Fatalf("cancel parked: %v", err)
	}
	if _, err := q.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if st := q.State(); st != Cancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
}
