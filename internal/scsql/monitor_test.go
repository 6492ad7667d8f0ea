package scsql

import (
	"testing"
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

// TestMonitorStreamsRegistry is the tentpole's query surface: after a
// measurement query runs, monitor() exposes its telemetry as an ordinary
// stream of rows.
func TestMonitorStreamsRegistry(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)

	// Before any query: the registry holds nothing under the link prefix.
	if rows := drainAll(t, ev, `select monitor('link.');`); len(rows) != 0 {
		t.Fatalf("monitor before any query returned %d rows", len(rows))
	}
	e.Reset()

	if got, want := execOne(t, ev, Figure5Query(30_000, 7)), int64(7); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
	e.Reset() // link.* keys name no query: they survive the Reset that retires it

	rows := drainAll(t, ev, `select monitor('link.bytes.');`)
	if len(rows) == 0 {
		t.Fatal("monitor returned no link.bytes rows after a query")
	}
	var total int64
	var prevName string
	for _, row := range rows {
		bag, ok := row.([]any)
		if !ok || len(bag) != 3 {
			t.Fatalf("counter row shape = %#v, want [kind name value]", row)
		}
		if bag[0] != "counter" {
			t.Fatalf("row kind = %v, want counter", bag[0])
		}
		name := bag[1].(string)
		if name <= prevName {
			t.Fatalf("rows not sorted by name: %q after %q", name, prevName)
		}
		prevName = name
		total += bag[2].(int64)
	}
	if total <= 30_000*7 {
		t.Fatalf("link bytes %d should exceed the payload volume", total)
	}
	e.Reset()

	// Histogram rows carry count/sum/min/max.
	hrows := drainAll(t, ev, `select monitor('link.deliver_vt.mpi');`)
	if len(hrows) != 1 {
		t.Fatalf("got %d histogram rows, want 1", len(hrows))
	}
	hbag := hrows[0].([]any)
	if len(hbag) != 6 || hbag[0] != "histogram" {
		t.Fatalf("histogram row shape = %#v", hbag)
	}
	if hbag[2].(int64) <= 0 {
		t.Fatalf("histogram count = %v, want > 0", hbag[2])
	}
	e.Reset()

	// monitor() composes with ordinary stream operators.
	if v := execOne(t, ev, `select count(monitor('link.bytes.'));`); v.(int64) == 0 {
		t.Fatal("count(monitor(...)) = 0")
	}
}

func TestMonitorArgumentErrors(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	if _, err := ev.Exec(`select monitor(42);`); err == nil {
		t.Fatal("monitor(42) did not fail")
	}
	if _, err := ev.Exec(`select monitor('a', 'b');`); err == nil {
		t.Fatal("monitor with two args did not fail")
	}
}
