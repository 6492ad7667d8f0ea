package scsql

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"scsq/internal/core"
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

func execOne(t *testing.T, ev *Evaluator, src string) any {
	t.Helper()
	res, err := ev.Exec(src)
	if err != nil {
		t.Fatalf("exec: %v\nquery: %s", err, src)
	}
	if res.Stream == nil {
		t.Fatalf("statement produced no stream: %s", src)
	}
	v, err := res.Stream.One()
	if err != nil {
		t.Fatalf("drain: %v\nquery: %s", err, src)
	}
	return v
}

func TestFigure5QueryVerbatim(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	v := execOne(t, ev, Figure5Query(30_000, 7))
	if got, want := v, int64(7); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
}

func TestMergeQueryVerbatim(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	v := execOne(t, ev, MergeQuery(1, 4, 30_000, 5))
	if got, want := v, int64(10); got != want {
		t.Fatalf("count = %v, want %v", got, want)
	}
}

func TestInboundQueriesVerbatim(t *testing.T) {
	const n, size, count = 3, 30_000, 4
	for q := 1; q <= 6; q++ {
		t.Run(fmt.Sprintf("query%d", q), func(t *testing.T) {
			e := newTestEngine(t)
			ev := NewEvaluator(e, nil)
			src, err := InboundQuery(q, n, size, count)
			if err != nil {
				t.Fatalf("corpus: %v", err)
			}
			v := execOne(t, ev, src)
			if got, want := v, int64(n*count); got != want {
				t.Fatalf("total count = %v, want %v", got, want)
			}
		})
	}
}

func TestGrepQueryVerbatim(t *testing.T) {
	names := []string{"f1.txt", "f2.txt", "f3.txt"}
	files := sqep.NewMapFileTable(names, map[string]string{
		"f1.txt": "alpha\nneedle one\nbeta",
		"f2.txt": "gamma\ndelta",
		"f3.txt": "needle two\nneedle three",
	})
	e := newTestEngine(t, core.Config{Files: files})
	ev := NewEvaluator(e, nil)
	res, err := ev.Exec(GrepQuery("needle", len(names)))
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	els, err := res.Stream.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(els) != 3 {
		t.Fatalf("matched %d lines, want 3: %v", len(els), els)
	}
	for _, el := range els {
		line, ok := el.Value.(string)
		if !ok || !strings.Contains(line, "needle") {
			t.Errorf("unexpected match %v", el.Value)
		}
	}
}

func TestRadix2QueryFunction(t *testing.T) {
	// A known signal source: the radix2(s) result must equal the directly
	// computed FFT of each array.
	const arrayLen = 64
	signal := make([]float64, arrayLen)
	for i := range signal {
		signal[i] = math.Sin(2*math.Pi*float64(i)/8) + 0.25*math.Cos(2*math.Pi*float64(i)/4)
	}
	source := func(*sqep.Ctx) sqep.Operator {
		cp := append([]float64(nil), signal...)
		return sqep.NewSlice(any(cp))
	}
	e := newTestEngine(t, core.Config{Sources: map[string]sqep.SourceFunc{"antenna": source}})
	ev := NewEvaluator(e, nil)

	if res, err := ev.Exec(Radix2Def); err != nil {
		t.Fatalf("create function: %v", err)
	} else if res.Defined != "radix2" {
		t.Fatalf("defined %q, want radix2", res.Defined)
	}

	v := execOne(t, ev, `select radix2('antenna');`)
	got, ok := v.([]float64)
	if !ok {
		t.Fatalf("result is %T, want []float64", v)
	}
	want := directFFT(t, signal)
	if len(got) != len(want) {
		t.Fatalf("result length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("fft[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestWindowAggregateQuery(t *testing.T) {
	e := newTestEngine(t)
	ev := NewEvaluator(e, nil)
	res, err := ev.Exec(`
select winagg(extract(a), 'sum', 3, 3)
from sp a
where a=sp(iota(1,9), 'be');`)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	els, err := res.Stream.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	want := []float64{6, 15, 24}
	if len(els) != len(want) {
		t.Fatalf("got %d windows, want %d", len(els), len(want))
	}
	for i, el := range els {
		if el.Value != any(want[i]) {
			t.Errorf("window %d = %v, want %v", i, el.Value, want[i])
		}
	}
}

func directFFT(t *testing.T, signal []float64) []float64 {
	t.Helper()
	n := len(signal)
	out := make([]float64, 2*n)
	for k := 0; k < n; k++ {
		var re, im float64
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			re += signal[j] * math.Cos(angle)
			im += signal[j] * math.Sin(angle)
		}
		out[2*k] = re
		out[2*k+1] = im
	}
	return out
}

// TestScopeBindings: rebinding a name overwrites it in its scope, an inner
// scope shadows an outer one without touching it, and a lookup falls through
// to the enclosing scopes.
func TestScopeBindings(t *testing.T) {
	outer := newScope(nil)
	outer.bind("n", int64(1))
	outer.bind("c", "bg")
	outer.bind("n", int64(2))
	if len(outer.vars) != 2 {
		t.Errorf("rebinding n added a binding: %v", outer.vars)
	}
	inner := newScope(outer)
	inner.bind("n", int64(3))
	for _, c := range []struct {
		sc   *scope
		name string
		want any
	}{
		{outer, "n", int64(2)},
		{inner, "n", int64(3)},
		{inner, "c", "bg"},
	} {
		if got, ok := c.sc.lookup(c.name); !ok || got != c.want {
			t.Errorf("lookup(%q) = %v, %v; want %v", c.name, got, ok, c.want)
		}
	}
	if v, ok := inner.lookup("x"); ok {
		t.Errorf("lookup of an unbound name found %v", v)
	}
}
