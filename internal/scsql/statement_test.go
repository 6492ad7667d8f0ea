package scsql_test

// A statement is a query: whatever else the engine is doing, a statement
// builds in a query of its own, and one whose build fails holds nothing.

import (
	"sync"
	"testing"
	"time"

	"scsq/internal/catalog"
	"scsq/internal/core"
	"scsq/internal/sched"
	"scsq/internal/scsql"
)

// gateFiles is a file table whose first Name call parks until release closes.
// filename(i) is evaluated while its statement builds, so a statement calling
// it is held inside its build bracket for as long as the test wants.
type gateFiles struct {
	entered, release chan struct{}
	once             sync.Once
}

func (g *gateFiles) Name(int64) (string, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return "f", nil
}

func (g *gateFiles) Read(string) (string, error) { return "", nil }

// rowsOf counts the rows of a sys table that belong to query qid.
func rowsOf(t *testing.T, e *core.Engine, table, qid string) int {
	t.Helper()
	tab, ok := e.SystemCatalog().Lookup(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	rows, err := tab.Snap("")
	if err != nil {
		t.Fatalf("%s: %v", table, err)
	}
	n := 0
	for _, r := range rows {
		if q, _ := r.Field("query"); q == qid {
			n++
		}
	}
	return n
}

func TestStatementIsAQuery(t *testing.T) {
	t.Run("beside a held build", func(t *testing.T) {
		gate := &gateFiles{entered: make(chan struct{}), release: make(chan struct{})}
		release := sync.OnceFunc(func() { close(gate.release) })
		e, err := core.NewEngine(core.Config{Files: gate})
		if err != nil {
			t.Fatal(err)
		}
		s := sched.New(e, nil)
		ev := scsql.NewEvaluator(e, s.Catalog())
		t.Cleanup(func() {
			release()
			s.Close()
			e.Close()
		})

		// The session's a is built and b placed when b's plan reaches
		// filename(1) and parks — inside the scheduler's BuildAs.
		const held = "q1"
		submitted := make(chan *sched.Query, 1)
		go func() {
			q, err := s.Submit(`select merge({a,b}) from sp a, sp b
				where a=sp(iota(1,3), 'be') and b=sp(grep('x', filename(1)), 'be');`)
			if err != nil {
				t.Errorf("submit: %v", err)
			}
			submitted <- q
		}()
		<-gate.entered
		leases, rps := e.LeaseCount(held), rowsOf(t, e, "sys_rps", held)
		if leases != 2 || rps != 1 {
			t.Fatalf("held build has %d leases and %d processes, want 2 and 1", leases, rps)
		}

		type read struct {
			id   string
			rows int
			err  error
		}
		done := make(chan read, 1)
		go func() {
			res, err := ev.Exec(`select sys_nodes();`)
			if err != nil {
				done <- read{err: err}
				return
			}
			els, err := res.Stream.Drain()
			done <- read{res.Stream.QueryID(), len(els), err}
		}()
		// The reader may or may not end while the build is held (it waits for
		// the bracket); the window only gives one that would run inside the
		// held query the time to do so.
		var r read
		ended := false
		select {
		case r = <-done:
			ended = true
		case <-time.After(20 * time.Millisecond):
		}
		if l, n := e.LeaseCount(held), rowsOf(t, e, "sys_rps", held); l != leases || n != rps {
			t.Fatalf("a statement beside the held build left it %d leases and %d processes, want %d and %d", l, n, leases, rps)
		}
		release()
		if !ended {
			r = <-done
		}
		if r.err != nil || r.rows == 0 {
			t.Fatalf("reader: %d rows, %v", r.rows, r.err)
		}
		if r.id == held {
			t.Errorf("the reader ran as %s, the query being built", r.id)
		}
		q := <-submitted
		if q == nil {
			t.FailNow()
		}
		if q.ID() != held {
			t.Fatalf("session is %s, want %s", q.ID(), held)
		}
		if _, err := q.Wait(); err != nil || q.State() != sched.Done {
			t.Errorf("held session ended %s: %v", q.State(), err)
		}
		if l := e.LeaseCount(held); l != 0 {
			t.Errorf("%d leases left after the session", l)
		}
	})

	t.Run("after a failed build", func(t *testing.T) {
		e, _, ev := newSchedEngine(t)
		// a takes BlueGene node 0; b asks for the same node and cannot be placed.
		const failed = "q1"
		if _, err := ev.Exec(`select extract(b) from sp a, sp b
			where b=sp(extract(a), 'bg', 0) and a=sp(iota(1,3), 'bg', 0);`); err == nil {
			t.Fatal("a statement asking for an occupied node built")
		}
		if l := e.LeaseCount(failed); l != 0 {
			t.Errorf("the failed build holds %d leases", l)
		}
		for _, table := range []string{"sys_rps", "sys_links"} {
			if n := rowsOf(t, e, table, failed); n != 0 {
				t.Errorf("the failed build left %d rows in %s", n, table)
			}
		}
		res, err := ev.Exec(`select extract(a) from sp a where a=sp(iota(1,3), 'bg', 0);`)
		if err != nil {
			t.Fatalf("the next statement, on the node the failed one had taken: %v", err)
		}
		id := res.Stream.QueryID()
		if id == failed {
			t.Errorf("the next statement runs as %s, the failed build's query", id)
		}
		if l, n := e.LeaseCount(id), rowsOf(t, e, "sys_rps", id); l != 1 || n != 1 {
			t.Errorf("%s built %d leases and %d processes, want 1 and 1", id, l, n)
		}
		if els, err := res.Stream.Drain(); err != nil || len(els) != 3 {
			t.Errorf("%s: %d elements, %v", id, len(els), err)
		}
	})
}

// TestStatementsBesideSessions reads the session table through synchronous
// statements while 32 sessions of Figure 5 are submitted, admitted, built
// and run on the same engine. A reader is a query of its own: its id is that
// of no session in the table it reads (a finished reader's id may go to a
// later session — it hands an unused id back), and no session notices it.
func TestStatementsBesideSessions(t *testing.T) {
	const sessions, readers = 32, 8
	e, s, ev := newSchedEngine(t)

	stop := make(chan struct{})
	var reading sync.WaitGroup
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				res, err := ev.Exec(`select sys_sessions();`)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				id := res.Stream.QueryID()
				els, err := res.Stream.Drain()
				if err != nil {
					t.Errorf("reader %s: %v", id, err)
					return
				}
				for _, el := range els {
					if sid, _ := el.Value.(catalog.Tuple).Field("id"); sid == id {
						t.Errorf("reader ran as session %s", id)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	var running sync.WaitGroup
	for i := 1; i <= sessions; i++ {
		running.Add(1)
		go func() {
			defer running.Done()
			q, err := s.Submit(scsql.Figure5Query(1000, i))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			els, err := q.Wait()
			if err != nil || q.State() != sched.Done || len(els) != 1 || els[0].Value != int64(i) {
				t.Errorf("session %s (%d arrays) ended %s with %v, %v", q.ID(), i, q.State(), els, err)
			}
			if l := e.LeaseCount(q.ID()); l != 0 {
				t.Errorf("session %s left %d leases", q.ID(), l)
			}
		}()
	}
	running.Wait()
	close(stop)
	reading.Wait()
	if got := e.MetricsSnapshot().Counters["sched.completed"]; got != sessions {
		t.Errorf("sched.completed = %d, want %d", got, sessions)
	}
}
