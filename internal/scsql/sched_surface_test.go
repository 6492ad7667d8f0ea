package scsql_test

// External test package: these tests exercise the SCSQL surface of the
// multi-tenant scheduler (sys_sessions(), sys_metrics('@qid')), and the sched
// package itself imports scsql — an internal test would cycle.

import (
	"strings"
	"testing"

	"scsq/internal/catalog"
	"scsq/internal/core"
	"scsq/internal/sched"
	"scsq/internal/scsql"
	"scsq/internal/sqep"
)

func newSchedEngine(t *testing.T) (*core.Engine, *sched.Scheduler, *scsql.Evaluator) {
	t.Helper()
	e, err := core.NewEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	s := sched.New(e, nil)
	t.Cleanup(func() { s.Close() })
	// The interactive evaluator shares the engine (and thereby the attached
	// scheduler) and the catalog with the scheduler's own evaluator.
	return e, s, scsql.NewEvaluator(e, s.Catalog())
}

func drainRows(t *testing.T, ev *scsql.Evaluator, src string) []sqep.Element {
	t.Helper()
	res, err := ev.Exec(src)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	if res.Stream == nil {
		t.Fatalf("no stream from %q", src)
	}
	els, err := res.Stream.Drain()
	if err != nil {
		t.Fatalf("drain %q: %v", src, err)
	}
	return els
}

// TestPSListsSessions: sys_sessions(), what the shell's \ps renders, lists a
// finished session with its terminal state, no nodes and zero resilience
// columns.
func TestPSListsSessions(t *testing.T) {
	_, s, ev := newSchedEngine(t)

	q, err := s.Submit(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	rows := drainRows(t, ev, `select sys_sessions();`)
	found := false
	for _, el := range rows {
		tup, ok := el.Value.(catalog.Tuple)
		if !ok {
			t.Fatalf("sys_sessions row = %#v, want a catalog.Tuple", el.Value)
		}
		field := func(name string) any {
			v, ok := tup.Field(name)
			if !ok {
				t.Fatalf("sys_sessions row %s has no field %q", tup, name)
			}
			return v
		}
		if field("id") == q.ID() {
			found = true
			if got := field("state"); got != "done" {
				t.Fatalf("state for %s = %v, want done", q.ID(), got)
			}
			if got := field("nodes"); got != int64(0) {
				t.Fatalf("nodes for finished %s = %v, want 0", q.ID(), got)
			}
		}
	}
	if !found {
		t.Fatalf("sys_sessions() rows %v do not mention session %s", rows, q.ID())
	}
}

// metricRows maps each sys_metrics row's name to its value column.
func metricRows(t *testing.T, rows []sqep.Element) map[string]int64 {
	t.Helper()
	got := make(map[string]int64, len(rows))
	for _, el := range rows {
		tup, ok := el.Value.(catalog.Tuple)
		if !ok {
			t.Fatalf("sys_metrics row = %#v, want a catalog.Tuple", el.Value)
		}
		name, _ := tup.Field("name")
		v, _ := tup.Field("value")
		got[name.(string)] = v.(int64)
	}
	return got
}

// TestMonitorSchedPrefixLike pins the SQL-LIKE spelling of the scheduler
// counters: sys_metrics('sched.%') strips the trailing '%' and matches the
// "sched." prefix, including the outcome counters no session has bumped yet
// (they are bound eagerly, so they report zero rather than being absent).
func TestMonitorSchedPrefixLike(t *testing.T) {
	_, s, ev := newSchedEngine(t)

	q, err := s.Submit(scsql.Figure5Query(30_000, 4))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}

	got := metricRows(t, drainRows(t, ev, `select sys_metrics('sched.%');`))
	for name := range got {
		if !strings.HasPrefix(name, "sched.") {
			t.Fatalf("sys_metrics('sched.%%') leaked row %q", name)
		}
	}
	if got["sched.submitted"] != 1 || got["sched.completed"] != 1 {
		t.Fatalf("sched counters = %v, want submitted=1 completed=1", got)
	}
	for _, name := range []string{"sched.failed", "sched.cancelled", "sched.rejected"} {
		if v, ok := got[name]; !ok || v != 0 {
			t.Fatalf("outcome counter %s = %d (present=%v), want 0 present", name, v, ok)
		}
	}
}

// TestPSWithoutSchedulerErrors: a bare evaluator's engine has no scheduler,
// so its catalog has no sys_sessions table and the statement does not
// compile.
func TestPSWithoutSchedulerErrors(t *testing.T) {
	e, err := core.NewEngine()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Close()
	ev := scsql.NewEvaluator(e, nil)
	if _, err := ev.Exec(`select sys_sessions();`); err == nil || !strings.Contains(err.Error(), `unknown function "sys_sessions"`) {
		t.Fatalf("err = %v, want an unknown-function error", err)
	}
}

// TestMonitorQueryScoped: sys_metrics('@qA') lists only qA's own keys, none
// of a concurrent session's.
func TestMonitorQueryScoped(t *testing.T) {
	_, s, ev := newSchedEngine(t)

	a, err := s.Submit(scsql.Figure5Query(30_000, 3))
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := s.Submit(scsql.Figure5Query(30_000, 3))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if _, err := a.Wait(); err != nil {
		t.Fatalf("a: %v", err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatalf("b: %v", err)
	}

	rows := drainRows(t, ev, `select sys_metrics('@`+a.ID()+`');`)
	if len(rows) == 0 {
		t.Fatalf("sys_metrics('@%s') yielded no rows", a.ID())
	}
	for _, el := range rows {
		v, _ := el.Value.(catalog.Tuple).Field("name")
		name := v.(string)
		if strings.Contains(name, b.ID()+"/") || strings.HasSuffix(name, "."+b.ID()) {
			t.Fatalf("scoped sys_metrics leaked %s's metric %q", b.ID(), name)
		}
		if !strings.Contains(name, a.ID()+"/") && !strings.HasSuffix(name, "."+a.ID()) {
			t.Fatalf("metric %q in sys_metrics('@%s') is not scoped to it", name, a.ID())
		}
	}
}

// TestRemovedBuiltinsAreUnknown: ps(), monitor() and cancel() are not SCSQL
// functions — the session table and the metrics are read as sys_sessions()
// and sys_metrics(), and a session is cancelled by its owner, never by a
// statement. A cancel('qN') statement leaves qN running.
func TestRemovedBuiltinsAreUnknown(t *testing.T) {
	_, s, ev := newSchedEngine(t)
	q, err := s.Submit(`select streamof(sys_sessions());`)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, ok, err := q.Next(); !ok || err != nil {
		t.Fatalf("opening snapshot: ok=%v err=%v", ok, err)
	}
	for _, src := range []string{`select ps();`, `select monitor('sched.');`, `select cancel('` + q.ID() + `');`} {
		if _, err := ev.Exec(src); err == nil || !strings.Contains(err.Error(), "unknown function") {
			t.Errorf("%s: err = %v, want an unknown-function error", src, err)
		}
	}
	if st := q.State(); st.Final() {
		t.Fatalf("session %s is %v after a cancel() statement", q.ID(), st)
	}
	if err := q.Cancel(); err != nil {
		t.Fatalf("owner's cancel: %v", err)
	}
}
