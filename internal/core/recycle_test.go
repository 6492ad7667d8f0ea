package core

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"scsq/internal/chaos"
	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// recycleChaos delays frames by their link's sequence number: a recycled
// link that did not start its sequence again draws other delays, and the
// makespans move.
func recycleChaos() *chaos.Injector {
	return chaos.New(5, chaos.DelayRate(0.4, 30*vtime.Microsecond))
}

// statement is one session a recycling test runs: it builds under q and
// returns the stream to drain.
type statement struct {
	name  string
	build func(t *testing.T, e *Engine, q *Query) *ClientStream
}

// genSP places a generator of count arrays of size bytes on BlueGene node n.
func genSP(t *testing.T, q *Query, n, size, count int) *SP {
	t.Helper()
	sp, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
		return sqep.NewGenArray(size, count), nil
	}, hw.BlueGene, mustSeq(t, n))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// countExtract places a process on BlueGene node n that counts the merged
// streams of ps, and extracts the count to the client.
func countExtract(t *testing.T, q *Query, ps []*SP, n int) *ClientStream {
	t.Helper()
	b, err := q.SP(func(pb *PlanBuilder) (sqep.Operator, error) {
		in, err := pb.Merge(ps)
		if err != nil {
			return nil, err
		}
		return sqep.NewStreamOf(sqep.NewCount(in)), nil
	}, hw.BlueGene, mustSeq(t, n))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Extract(b)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// mergeInto counts, on BlueGene node into, the merged streams of a
// generator of 8 arrays of 3 000 B on each of nodes of cluster c.
func mergeInto(t *testing.T, q *Query, c hw.ClusterName, nodes []int, into int) *ClientStream {
	t.Helper()
	ps := make([]*SP, len(nodes))
	for i, n := range nodes {
		sp, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) { return sqep.NewGenArray(3000, 8), nil }, c, mustSeq(t, n))
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = sp
	}
	return countExtract(t, q, ps, into)
}

// cleanStatements are the clean sessions of TestRecycledConnectionsReadAsFresh:
// a Query 6 at n = 8, a Figure 5 point to point, a two-producer merge, a
// client limit that stops before its producer does, and merges of 2 and then
// 4 streams into one node, over MPI and from the back-end: the second takes
// links the first handed back, which read their multiplicities afresh (the
// receiving co-processor's producers, the I/O node's streams and back-end
// peers).
var cleanStatements = []statement{
	{"query6", func(t *testing.T, e *Engine, q *Query) *ClientStream {
		return buildQuery6(t, e, q, 8, 1000, 3, nil)
	}},
	{"figure5", func(t *testing.T, e *Engine, q *Query) *ClientStream {
		return countExtract(t, q, []*SP{genSP(t, q, 1, 30_000, 10)}, 0)
	}},
	{"merge", func(t *testing.T, e *Engine, q *Query) *ClientStream {
		return countExtract(t, q, []*SP{genSP(t, q, 4, 3000, 8), genSP(t, q, 5, 3000, 8)}, 6)
	}},
	{"limit", func(t *testing.T, e *Engine, q *Query) *ClientStream {
		a := genSP(t, q, 3, 1000, 40)
		cs, err := q.ClientPlan(func(b *PlanBuilder) (sqep.Operator, error) {
			in, err := b.Extract(a)
			if err != nil {
				return nil, err
			}
			return sqep.NewLimit(in, 3), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}},
	{"mpi merge of 2", func(t *testing.T, e *Engine, q *Query) *ClientStream {
		return mergeInto(t, q, hw.BlueGene, []int{21, 22}, 20)
	}},
	{"mpi merge of 4", func(t *testing.T, e *Engine, q *Query) *ClientStream {
		return mergeInto(t, q, hw.BlueGene, []int{21, 22, 23, 24}, 20)
	}},
	{"inbound merge of 2", func(t *testing.T, e *Engine, q *Query) *ClientStream {
		return mergeInto(t, q, hw.BackEnd, []int{0, 1}, 16)
	}},
	{"inbound merge of 4", func(t *testing.T, e *Engine, q *Query) *ClientStream {
		return mergeInto(t, q, hw.BackEnd, []int{0, 1, 2, 3}, 16)
	}},
}

// reading is what a clean session reads: its makespan and its deterministic
// metric rows.
type reading struct {
	makespan vtime.Time
	rows     []string
}

// runStatement builds st on e, drains it, and reads it.
func runStatement(t *testing.T, e *Engine, st statement) reading {
	t.Helper()
	q := beginQuery(t, e)
	cs := st.build(t, e, q)
	if _, err := cs.Drain(); err != nil {
		t.Fatalf("%s: %v", st.name, err)
	}
	return reading{cs.Makespan(), sessionMetricRows(t, e, q.ID())}
}

// TestRecycledConnectionsReadAsFresh: on one engine, reset between
// statements, clean sessions recycle their receivers, senders and links
// into the next ones, between a cancelled session and one whose node the
// injector kills; every clean session reads the makespan and the
// deterministic metric rows it reads on a fresh engine.
func TestRecycledConnectionsReadAsFresh(t *testing.T) {
	want := make(map[string]reading)
	for _, st := range cleanStatements {
		fresh, err := NewEngine(Config{Chaos: recycleChaos()})
		if err != nil {
			t.Fatal(err)
		}
		want[st.name] = runStatement(t, fresh, st)
		fresh.Close()
	}

	inj := recycleChaos()
	e, err := NewEngine(Config{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cancelled := func() {
		q := beginQuery(t, e)
		entered, release := make(chan struct{}), make(chan struct{})
		cs := buildQuery6(t, e, q, 8, 1000, 3, func(op sqep.Operator) sqep.Operator {
			return &gateOp{Operator: op, entered: entered, release: release}
		})
		done := make(chan error, 1)
		go func() { _, err := cs.Drain(); done <- err }()
		<-entered
		q.Cancel(nil)
		close(release)
		if err := <-done; err == nil {
			t.Fatal("the cancelled session drained")
		}
	}
	killed := func() {
		q := beginQuery(t, e)
		entered, release := make(chan struct{}), make(chan struct{})
		a, err := q.SP(func(*PlanBuilder) (sqep.Operator, error) {
			return &gateOp{Operator: sqep.NewGenArray(1000, 20), entered: entered, release: release}, nil
		}, hw.BlueGene, mustSeq(t, 28))
		if err != nil {
			t.Fatal(err)
		}
		cs := countExtract(t, q, []*SP{a}, 29)
		done := make(chan error, 1)
		go func() { _, err := cs.Drain(); done <- err }()
		<-entered
		inj.KillNode(hw.BlueGene, 28)
		close(release)
		if err := <-done; err == nil {
			t.Fatal("the session on a killed node drained")
		}
	}
	steps := []func(){}
	for round := range 3 {
		for _, st := range cleanStatements {
			steps = append(steps, func() {
				got := runStatement(t, e, st)
				if w := want[st.name]; got.makespan != w.makespan || !slices.Equal(got.rows, w.rows) {
					t.Errorf("round %d, %s on a warm engine: makespan %v, rows\n%v\nfresh: %v, rows\n%v", round, st.name, got.makespan, got.rows, w.makespan, w.rows)
				}
			})
		}
		steps = append(steps, []func(){cancelled, killed}[round%2])
	}
	for i, step := range steps {
		step()
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			e.spares.mu.Lock()
			n := len(e.spares.links)
			e.spares.mu.Unlock()
			if n != 17 {
				t.Fatalf("a clean Query 6 handed back %d links, want its 17", n)
			}
		}
	}
}

// tripOp calls trip as its input's at-th element is asked for.
type tripOp struct {
	sqep.Operator
	at   int
	trip func()
}

func (o *tripOp) Next() (sqep.Element, bool, error) {
	if o.at--; o.at == 0 {
		o.trip()
	}
	return o.Operator.Next()
}

// TestFailedSessionRecyclesNothing races a Cancel and a node kill against
// the clean finish of a small session, beside sessions nothing interferes
// with: whatever a session that failed or was cancelled wired stays out of
// the spare lists, no object is on a list twice, and no list outgrows its
// bound.
func TestFailedSessionRecyclesNothing(t *testing.T) {
	inj := chaos.New(1)
	e, err := NewEngine(Config{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// wiredBy lists the links and receivers q wired.
	wiredBy := func(q *Query) (objs []any) {
		for _, sp := range q.qc.snapshot() {
			sp.mu.Lock()
			for _, w := range sp.wirings {
				objs = append(objs, w.link)
				if w.recv != nil {
					objs = append(objs, w.recv)
				}
			}
			sp.mu.Unlock()
		}
		return objs
	}
	// check holds the spare lists to their bound, each object on them once
	// and none of failed's.
	check := func(failed []any) {
		t.Helper()
		e.spares.mu.Lock()
		defer e.spares.mu.Unlock()
		var spare []any
		for _, x := range e.spares.recvs {
			spare = append(spare, x)
		}
		for _, x := range e.spares.sends {
			spare = append(spare, x)
		}
		for _, x := range e.spares.links {
			spare = append(spare, x)
		}
		for _, n := range []int{len(e.spares.recvs), len(e.spares.sends), len(e.spares.links)} {
			if n > maxSpares {
				t.Fatalf("a spare list holds %d, bound %d", n, maxSpares)
			}
		}
		seen := make(map[any]bool)
		for _, x := range spare {
			if seen[x] {
				t.Fatalf("%T %p is on a spare list twice", x, x)
			}
			seen[x] = true
		}
		for _, x := range failed {
			if seen[x] {
				t.Fatalf("%T %p of a failed session is on a spare list", x, x)
			}
		}
	}

	// A merge of 70 back-end generators into the client hands back more
	// links and senders than a list holds.
	q := beginQuery(t, e)
	gens := make([]Subquery, 70)
	for i := range gens {
		gens[i] = func(*PlanBuilder) (sqep.Operator, error) { return sqep.NewGenArray(100, 1), nil }
	}
	ps, err := spv(q, gens, hw.BackEnd, cndb.URR(e.coords[hw.BackEnd].DB()))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.MergeExtract(ps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Drain(); err != nil {
		t.Fatal(err)
	}
	check(nil)
	if n := len(e.spares.links); n != maxSpares {
		t.Fatalf("70 links handed back leave %d spare links, want the bound %d", n, maxSpares)
	}

	var failed []any
	for round := range 16 {
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		clean := figure5seq(t, e, 1000, 4, 10, 11)
		var vq *Query
		// The Cancel or kill lands from inside the generator, at a random
		// element or never, and from a goroutine started with the drains,
		// after a random number of yields, more in later rounds: in the stream,
		// as it ends or after the finish, whichever comes first.
		prod, cons := 12+2*(round/2), 13+2*(round/2)
		var once sync.Once
		interfere := func() {
			once.Do(func() {
				if round%2 == 0 {
					vq.Cancel(nil)
				} else {
					inj.KillNode(hw.BlueGene, prod)
				}
			})
		}
		vq = beginQuery(t, e)
		a, err := vq.SP(func(*PlanBuilder) (sqep.Operator, error) {
			return &tripOp{Operator: sqep.NewGenArray(1000, 40), at: 1 + rand.IntN(80), trip: interfere}, nil
		}, hw.BlueGene, mustSeq(t, prod))
		if err != nil {
			t.Fatal(err)
		}
		vs := countExtract(t, vq, []*SP{a}, cons)
		mine, vsps := wiredBy(vq), vq.qc.snapshot()
		var wg sync.WaitGroup
		wg.Add(3)
		var cerr, verr error
		go func() { defer wg.Done(); _, cerr = clean.Drain() }()
		go func() { defer wg.Done(); _, verr = vs.Drain() }()
		go func() {
			defer wg.Done()
			for range rand.IntN(4 << round) {
				runtime.Gosched()
			}
			interfere()
		}()
		wg.Wait()
		if cerr != nil {
			t.Fatalf("round %d: the untouched session failed: %v", round, cerr)
		}
		vq.qc.mu.Lock()
		lost := vq.qc.cancelled || verr != nil
		vq.qc.mu.Unlock()
		if lost {
			failed = append(failed, mine...)
			for _, sp := range vsps {
				subs := sp.rp.Detach()
				if len(subs) == 0 {
					t.Fatalf("round %d: a failed session's process %s gave up its senders", round, sp.id)
				}
				for _, d := range subs {
					failed = append(failed, d)
				}
			}
		}
		check(failed)
		if errors.Is(verr, ErrQueryCancelled) && round%2 == 1 {
			t.Fatalf("round %d: a node kill reads as a cancel: %v", round, verr)
		}
	}
}

// TestLateFailureReachesNoRecycledProcess races a Cancel, then a node kill,
// against the clean finish of a session. Each lands at one of three points,
// in turn: as the session's one row reaches the client (before the finish),
// from a goroutine that starts once the client's drain is done and yields
// a random number of times (racing the finish), or once Drain has returned
// (after it). Whichever wins, the 20 sessions that follow on the engine
// read the makespan and the deterministic metric rows of a fresh engine, and
// none opens a process in one that a cancel or a crash reached: a Down frame
// or a Fail of the raced session reaches no process of theirs.
func TestLateFailureReachesNoRecycledProcess(t *testing.T) {
	want := make(map[string]reading)
	for _, st := range cleanStatements {
		fresh, err := NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		want[st.name] = runStatement(t, fresh, st)
		fresh.Close()
	}
	inj := chaos.New(1)
	e, err := NewEngine(Config{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// reached holds the processes of raced sessions a cancel or crash took.
	reached := make(map[*SP]bool)
	// Node pairs none of cleanStatements places on: a killed one stays dead.
	pairs := [][2]int{{12, 13}, {14, 15}, {18, 19}, {26, 27}, {28, 29}, {30, 31}}
	for round := range 2 * len(pairs) {
		prod, cons := pairs[round/2][0], pairs[round/2][1]
		q := beginQuery(t, e)
		cs := countExtract(t, q, []*SP{genSP(t, q, prod, 1000, 40)}, cons)
		sps := q.qc.snapshot()
		interfere := func() {
			if round%2 == 0 {
				q.Cancel(nil)
			} else {
				inj.KillNode(hw.BlueGene, prod)
			}
		}
		var wg sync.WaitGroup
		switch round / 2 % 3 {
		case 0:
			cs.SetElementObserver(func(sqep.Element) { interfere() })
		case 1:
			wg.Add(1)
			go func() {
				defer wg.Done()
				for cs.ctx.Agent.State() != vtime.Done {
					runtime.Gosched()
				}
				for range rand.IntN(4) {
					runtime.Gosched()
				}
				interfere()
			}()
		}
		_, derr := cs.Drain()
		wg.Wait()
		if round/2%3 == 2 {
			interfere()
		}
		q.qc.mu.Lock()
		if q.qc.cancelled || q.qc.crashed || derr != nil {
			for _, sp := range sps {
				reached[sp] = true
			}
		}
		q.qc.mu.Unlock()
		if err := e.Reset(); err != nil {
			t.Fatal(err)
		}

		for i := range 20 {
			st := cleanStatements[(round+i)%len(cleanStatements)]
			q := beginQuery(t, e)
			cs := st.build(t, e, q)
			for _, sp := range q.qc.snapshot() {
				if reached[sp] {
					t.Fatalf("round %d: %s opens %s in a process of a session a cancel or crash reached", round, st.name, sp.id)
				}
			}
			if _, err := cs.Drain(); err != nil {
				t.Fatalf("round %d, %s: %v", round, st.name, err)
			}
			got := reading{cs.Makespan(), sessionMetricRows(t, e, q.ID())}
			if w := want[st.name]; got.makespan != w.makespan || !slices.Equal(got.rows, w.rows) {
				t.Errorf("round %d, %s after a raced finish: makespan %v, rows\n%v\nfresh: %v, rows\n%v", round, st.name, got.makespan, got.rows, w.makespan, w.rows)
			}
			if err := e.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
