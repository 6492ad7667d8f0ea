package core

import (
	"errors"
	"reflect"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/rp"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// blockOp is a source that blocks in Next until its query is cancelled; it
// announces on entered that the query is mid-run.
type blockOp struct {
	entered chan<- struct{}
	cancel  sqep.CancelSignal
	agent   *vtime.Agent
}

func (b *blockOp) Open(ctx *sqep.Ctx) error { b.cancel, b.agent = ctx.Cancel, ctx.Agent; return nil }
func (b *blockOp) Next() (sqep.Element, bool, error) {
	close(b.entered)
	vtime.Wait(b.agent, vtime.Tick, b.cancel.Done(), nil)
	return sqep.Element{}, false, b.cancel.Cause()
}
func (b *blockOp) Close() error { return nil }

// buildPair builds the paper's intra-BlueGene pair under q — a on node 1
// running src, b on node 0 counting a's stream, the client extracting b — so
// the query holds two leases, an MPI and a TCP edge, and keys of every kind.
func buildPair(t *testing.T, e *Engine, q *Query, src func() sqep.Operator, fail error) (*ClientStream, error) {
	t.Helper()
	var cs *ClientStream
	err := e.BuildAs(q, func() error {
		a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) { return src(), nil }, hw.BlueGene, mustSeq(t, 1))
		if err != nil {
			return err
		}
		b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
			in, err := pb.Extract(a)
			if err != nil {
				return nil, err
			}
			return sqep.NewStreamOf(sqep.NewCount(in)), nil
		}, hw.BlueGene, mustSeq(t, 0))
		if err != nil {
			return err
		}
		if cs, err = q.Extract(b); err != nil {
			return err
		}
		return fail
	})
	return cs, err
}

// drainsNodeDown builds the pair over a source of many frames and drains
// it: a node death on the way must fail the drain with a typed error.
func drainsNodeDown(t *testing.T, e *Engine, q *Query) {
	cs, err := buildPair(t, e, q, func() sqep.Operator { return sqep.NewGenArray(30_000, 6) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Drain(); !errors.Is(err, rp.ErrUpstreamDown) && !errors.Is(err, carrier.ErrNodeDown) {
		t.Fatalf("drain across a node death: %v, want ErrUpstreamDown or ErrNodeDown", err)
	}
}

// engineFacts is what a retire must leave exactly as it was.
type engineFacts struct {
	counterSum int64
	busy       map[string]vtime.Duration
}

func factsOf(e *Engine) engineFacts {
	f := engineFacts{counterSum: e.MetricsSnapshot().SumCounters(""), busy: make(map[string]vtime.Duration)}
	for _, r := range e.Env().Resources() {
		f.busy[r.Name()] = r.BusyTime()
	}
	return f
}

// TestEveryExitRetiresOnce takes a query out of the engine through each of
// its exits and asserts the one post-condition they share: nothing of the
// query is left — no lease, no registered RP, no edge, no registry key, no
// busy-time owner — no total moved, retiring again changes nothing, and the
// engine runs the next query.
func TestEveryExitRetiresOnce(t *testing.T) {
	gen := func() sqep.Operator { return sqep.NewGenArray(1000, 3) }
	drained := func(t *testing.T, e *Engine, q *Query) {
		cs, err := buildPair(t, e, q, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	cases := []struct {
		name string
		cfg  func() Config
		// live takes q up to its exit; what is left to do is retire it.
		live func(t *testing.T, e *Engine, q *Query)
		// reset retires through Engine.Reset instead of Query.Retire; the
		// devices are freed with it, so busy time is not compared.
		reset bool
		// ran: the query moved frames, so there must be something to fold.
		ran bool
	}{
		{name: "drained, then Reset", reset: true, ran: true, live: drained},
		// What the scheduler does to the session leaving its window.
		{name: "evicted from the finished window", ran: true, live: drained},
		{name: "cancelled mid-run", live: func(t *testing.T, e *Engine, q *Query) {
			entered := make(chan struct{})
			cs, err := buildPair(t, e, q, func() sqep.Operator { return &blockOp{entered: entered} }, nil)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := cs.Drain()
				done <- err
			}()
			<-entered
			q.Cancel(nil)
			if err := <-done; !errors.Is(err, ErrQueryCancelled) {
				t.Fatalf("drain of the cancelled query: %v", err)
			}
		}},
		{name: "build failed and rolled back", live: func(t *testing.T, e *Engine, q *Query) {
			boom := errors.New("boom")
			if _, err := buildPair(t, e, q, gen, boom); !errors.Is(err, boom) {
				t.Fatalf("build: %v", err)
			}
		}},
		{name: "retired while queued", live: func(*testing.T, *Engine, *Query) {}},
		{name: "Reset with a built, never started query", reset: true, live: func(t *testing.T, e *Engine, q *Query) {
			if _, err := buildPair(t, e, q, gen, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "node killed between admit and start",
			cfg: func() Config { return Config{Chaos: chaos.New(1)} },
			live: func(t *testing.T, e *Engine, q *Query) {
				cs, err := buildPair(t, e, q, gen, nil)
				if err != nil {
					t.Fatal(err)
				}
				e.inj.KillNode(hw.BlueGene, 1)
				if _, err := cs.Drain(); err == nil {
					t.Fatal("drain succeeded although the source's node died before start")
				}
			}},
		// A node death mid-stream fails the query: the producer's, whose
		// process can no longer announce its own end, and the consumer's,
		// whose own consumer, the client, waits on it.
		{name: "producer's node killed mid-stream", ran: true,
			cfg:  func() Config { return Config{Chaos: chaos.New(1, chaos.CrashAfterSends(hw.BlueGene, 1, 2))} },
			live: drainsNodeDown},
		{name: "consumer's node killed mid-stream", ran: true,
			cfg: func() Config {
				return Config{Chaos: chaos.New(1, chaos.CrashAtVTime(hw.BlueGene, 0, vtime.Time(3*vtime.Millisecond)))}
			},
			live: drainsNodeDown},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var cfg Config
			if c.cfg != nil {
				cfg = c.cfg()
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			q, err := e.BeginQuery()
			if err != nil {
				t.Fatal(err)
			}
			qid := q.ID()
			c.live(t, e, q)
			if scoped := e.MetricsSnapshot().ForQuery(qid); c.ran && (len(scoped.Counters) == 0 || len(e.Edges()) == 0) {
				t.Fatalf("%s ran and left no key or edge to retire: the case is vacuous", qid)
			}

			before := factsOf(e)
			retire := q.Retire
			if c.reset {
				retire = func() {
					if err := e.Reset(); err != nil {
						t.Fatalf("reset: %v", err)
					}
				}
			}
			retire()

			if n := e.LeaseCount(qid); n != 0 {
				t.Errorf("%d leases left", n)
			}
			if n := q.SPCount(); n != 0 {
				t.Errorf("%s still holds %d processes", qid, n)
			}
			for _, ed := range e.Edges() {
				if ed.Query == qid {
					t.Errorf("edge left: %+v", ed)
				}
			}
			snap := e.MetricsSnapshot()
			if got := snap.ForQuery(qid); len(got.Counters)+len(got.Gauges)+len(got.Histograms) != 0 {
				t.Errorf("registry keys left: %v %v %v", got.CounterNames(), got.GaugeNames(), got.HistogramNames())
			}
			after := factsOf(e)
			if after.counterSum != before.counterSum {
				t.Errorf("Σ counters = %d after the retire, %d before", after.counterSum, before.counterSum)
			}
			if !c.reset && !reflect.DeepEqual(after.busy, before.busy) {
				t.Errorf("busy time moved: %v, was %v", after.busy, before.busy)
			}
			for _, r := range e.Env().Resources() {
				var sum vtime.Duration
				for owner, d := range r.OwnerBusy() {
					sum += d
					if owner == qid {
						t.Errorf("%s still lists owner %s", r.Name(), qid)
					}
				}
				if sum != r.BusyTime() {
					t.Errorf("%s: owners sum to %v, busy %v", r.Name(), sum, r.BusyTime())
				}
			}
			if !c.reset && c.ran && e.Env().Resources()[0].OwnerBusy()[vtime.RetiredOwner] == 0 {
				t.Errorf("%s carries no retired busy time after the fold", e.Env().Resources()[0].Name())
			}

			edges := e.Edges()
			retire()
			if again := e.MetricsSnapshot(); !reflect.DeepEqual(again, snap) {
				t.Error("a second retire changed the registry")
			}
			if !reflect.DeepEqual(e.Edges(), edges) || !reflect.DeepEqual(factsOf(e), after) {
				t.Error("a second retire changed edges or busy time")
			}

			// The next query: a fresh scope on the same engine.
			next := beginQuery(t, e)
			a, err := next.SP(func(*PlanBuilder) (sqep.Operator, error) { return sqep.NewIota(1, 4), nil }, hw.BackEnd, nil)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := next.Extract(a)
			if err != nil {
				t.Fatal(err)
			}
			if els, err := cs.Drain(); err != nil || len(els) != 4 {
				t.Errorf("next query: %d elements, %v", len(els), err)
			}
		})
	}
}

// TestInProcessRegistryStaysBounded runs the in-process path every paper
// figure uses — a statement's own query, Drain, Reset — 300 times: the registry at op
// 300 holds as many keys as at op 30, and the totals by prefix hold every
// op's contribution.
func TestInProcessRegistryStaysBounded(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	keys := func() int {
		s := e.MetricsSnapshot()
		return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
	}
	var at30 int
	for op := 1; op <= 300; op++ {
		if _, err := figure5(t, e, 1000, 3).Drain(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if err := e.Reset(); err != nil {
			t.Fatalf("op %d: reset: %v", op, err)
		}
		if op == 30 {
			at30 = keys()
		}
	}
	if got := keys(); got != at30 {
		t.Errorf("%d registry keys after 300 ops, %d after 30", got, at30)
	}
	if got := len(e.queries); got != 0 {
		t.Errorf("%d query scopes left after the last Reset", got)
	}
	// gen_array(1000,3) sends 3 arrays and b's count one element, per op.
	if got := e.MetricsSnapshot().Counters["rp.elements_out.retired"]; got != 300*4 {
		t.Errorf("rp.elements_out.retired = %d, want %d", got, 300*4)
	}
}

// TestImplicitQueriesGetFreshScopes drains two queries without a Reset
// between them: each is a scope of its own, both stay queryable, and Reset
// retires both.
func TestImplicitQueriesGetFreshScopes(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var ids []string
	for i := 0; i < 2; i++ {
		cs := figure5(t, e, 1000, 3)
		if _, err := cs.Drain(); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, cs.QueryID())
	}
	if ids[0] == ids[1] {
		t.Fatalf("both queries ran as %s", ids[0])
	}
	edges := e.Edges()
	if len(edges) != 4 || edges[0].Query != ids[0] || edges[3].Query != ids[1] {
		t.Errorf("edges %+v, want two of %s then two of %s", edges, ids[0], ids[1])
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if len(e.Edges()) != 0 || len(e.queries) != 0 {
		t.Errorf("%d edges, %d scopes left after Reset", len(e.Edges()), len(e.queries))
	}
}

// TestClientOnlyStatementLeavesNothing: a pure client plan — what a catalog
// read through Exec compiles to — is retired by its own Drain and hands its
// id back, so an embedder polling the system between (or during) queries
// accumulates no scope and shifts no query's id; a query with processes keeps
// its scope until Reset, as before.
func TestClientOnlyStatementLeavesNothing(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	read := func() {
		t.Helper()
		q := beginQuery(t, e)
		cs, err := q.ClientPlan(func(*PlanBuilder) (sqep.Operator, error) {
			return sqep.NewThunk("read", func() ([]any, error) { return []any{int64(len(e.Edges()))}, nil }), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.OwnQuery()
		if _, err := cs.One(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		read()
	}
	if len(e.queries) != 0 {
		t.Fatalf("%d scopes left by 50 reads", len(e.queries))
	}
	first := figure5(t, e, 1000, 3)
	if _, err := first.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		read()
	}
	second := figure5(t, e, 1000, 3)
	if first.QueryID() != "q1" || second.QueryID() != "q2" {
		t.Errorf("queries ran as %s and %s around 100 reads, want q1 and q2", first.QueryID(), second.QueryID())
	}
	if _, err := second.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(e.queries) != 2 {
		t.Errorf("%d scopes open, want the two drained queries'", len(e.queries))
	}
	// A read that overlaps a later query's id keeps the id it was given.
	q, err := e.BeginQuery()
	if err != nil {
		t.Fatal(err)
	}
	read()
	if q.ID() != "q3" || len(e.queries) != 3 {
		t.Errorf("BeginQuery gave %s with %d scopes open, want q3 and 3", q.ID(), len(e.queries))
	}
	q.Retire()
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
}
