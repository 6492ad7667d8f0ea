package scsql

import (
	"testing"

	"scsq/internal/catalog"
)

// drainAll executes src and returns every element value.
func drainAll(t *testing.T, ev *Evaluator, src string) []any {
	t.Helper()
	res, err := ev.Exec(src)
	if err != nil {
		t.Fatalf("exec: %v\nquery: %s", err, src)
	}
	if res.Stream == nil {
		t.Fatalf("statement produced no stream: %s", src)
	}
	els, err := res.Stream.Drain()
	if err != nil {
		t.Fatalf("drain: %v\nquery: %s", err, src)
	}
	out := make([]any, len(els))
	for i, el := range els {
		out[i] = el.Value
	}
	return out
}

// TestMonitorStreamsRegistry: after a measurement query runs, sys_metrics()
// exposes its telemetry as an ordinary stream of rows, captured when the
// statement runs; the keys that name no query survive the Reset that retires
// it.
func TestMonitorStreamsRegistry(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)

	// Before any query: the registry holds nothing under the link prefix.
	if rows := drainAll(t, ev, `select sys_metrics('link.');`); len(rows) != 0 {
		t.Fatalf("sys_metrics before any query returned %d rows", len(rows))
	}
	e.Reset()

	if got, want := execOne(t, ev, Figure5Query(30_000, 7)), int64(7); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
	e.Reset() // link.* keys name no query: they survive the Reset that retires it

	rows := drainAll(t, ev, `select sys_metrics('link.bytes.');`)
	if len(rows) == 0 {
		t.Fatal("sys_metrics returned no link.bytes rows after a query")
	}
	var total int64
	var prevName string
	for _, row := range rows {
		tup := row.(catalog.Tuple)
		if tup.Vals[0] != "counter" {
			t.Fatalf("row kind = %v, want counter", tup.Vals[0])
		}
		name := tup.Vals[1].(string)
		if name <= prevName {
			t.Fatalf("rows not sorted by name: %q after %q", name, prevName)
		}
		prevName = name
		total += tup.Vals[2].(int64)
	}
	if total <= 30_000*7 {
		t.Fatalf("link bytes %d should exceed the payload volume", total)
	}
	e.Reset()

	// Histogram rows carry count/sum/min/max.
	hrows := drainAll(t, ev, `select sys_metrics('link.deliver_vt.mpi');`)
	if len(hrows) != 1 {
		t.Fatalf("got %d histogram rows, want 1", len(hrows))
	}
	if h := hrows[0].(catalog.Tuple); h.Vals[0] != "histogram" || h.Vals[3].(int64) <= 0 {
		t.Fatalf("histogram row = %s, want kind histogram and a count > 0", h)
	}
	e.Reset()

	// sys_metrics() composes with ordinary stream operators.
	if v := execOne(t, ev, `select count(sys_metrics('link.bytes.'));`); v.(int64) == 0 {
		t.Fatal("count(sys_metrics(...)) = 0")
	}
}

func TestMonitorArgumentErrors(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	if _, err := ev.Exec(`select sys_metrics(42);`); err == nil {
		t.Fatal("sys_metrics(42) did not fail")
	}
	if _, err := ev.Exec(`select sys_metrics('a', 'b');`); err == nil {
		t.Fatal("sys_metrics with two args did not fail")
	}
}
