package sqep

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"scsq/internal/hw"
	"scsq/internal/race"
	"scsq/internal/vtime"
)

func testCtx() *Ctx {
	return &Ctx{
		CPU:  vtime.NewResource("cpu"),
		Cost: hw.DefaultCostModel(),
	}
}

func drainValues(t *testing.T, op Operator, ctx *Ctx) []any {
	t.Helper()
	if ctx == nil {
		ctx = testCtx()
	}
	if err := op.Open(ctx); err != nil {
		t.Fatalf("open: %v", err)
	}
	els, err := Drain(op)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := make([]any, len(els))
	for i, el := range els {
		out[i] = el.Value
	}
	return out
}

func TestSliceOperator(t *testing.T) {
	got := drainValues(t, NewSlice(int64(1), "a", 2.0), nil)
	want := []any{int64(1), "a", 2.0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slice = %v, want %v", got, want)
	}
	// Reopening rewinds.
	s := NewSlice(int64(1))
	if got := drainValues(t, s, nil); len(got) != 1 {
		t.Fatalf("first drain = %v", got)
	}
	if got := drainValues(t, s, nil); len(got) != 1 {
		t.Errorf("drain after reopen = %v, want 1 element", got)
	}
}

func TestGenArray(t *testing.T) {
	g := NewGenArray(800, 3)
	ctx := testCtx()
	if err := g.Open(ctx); err != nil {
		t.Fatal(err)
	}
	els, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 3 {
		t.Fatalf("got %d arrays, want 3", len(els))
	}
	var prev vtime.Time
	for i, el := range els {
		arr, ok := el.Value.([]float64)
		if !ok || len(arr) != 100 {
			t.Fatalf("element %d = %T len %d, want []float64 of 100", i, el.Value, len(arr))
		}
		if el.At <= prev {
			t.Errorf("timestamps must advance: %v after %v", el.At, prev)
		}
		prev = el.At
	}
	// CPU was charged GenByte per byte per array.
	want := vtime.Duration(3 * 800 * ctx.Cost.GenByte)
	if got := ctx.CPU.BusyTime(); got != want {
		t.Errorf("cpu busy = %v, want %v", got, want)
	}
}

func TestGenArrayValidation(t *testing.T) {
	if err := NewGenArray(0, 1).Open(testCtx()); err == nil {
		t.Error("zero size should fail")
	}
	if err := NewGenArray(100, -1).Open(testCtx()); err == nil {
		t.Error("negative count should fail")
	}
	g := NewGenArray(100, 0)
	if err := g.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := g.Next(); ok {
		t.Error("zero-count generator must be empty")
	}
}

func TestIota(t *testing.T) {
	got := drainValues(t, NewIota(1, 5), nil)
	want := []any{int64(1), int64(2), int64(3), int64(4), int64(5)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("iota(1,5) = %v, want %v", got, want)
	}
	if got := drainValues(t, NewIota(3, 2), nil); len(got) != 0 {
		t.Errorf("iota(3,2) = %v, want empty", got)
	}
	if got := drainValues(t, NewIota(-2, 1), nil); len(got) != 4 {
		t.Errorf("iota(-2,1) = %v, want 4 elements", got)
	}
}

// TestIotaEndsAtTheInt64Bounds: a range reaching either end of int64 emits
// its values and ends, without wrapping around, and the whole range starts
// as any other (its slab hint does not overflow).
func TestIotaEndsAtTheInt64Bounds(t *testing.T) {
	for _, c := range []struct {
		from, to int64
		want     []int64 // then the stream ends; nil: the first values only
	}{
		{math.MaxInt64 - 1, math.MaxInt64, []int64{math.MaxInt64 - 1, math.MaxInt64}},
		{math.MaxInt64, math.MaxInt64, []int64{math.MaxInt64}},
		{math.MinInt64, math.MinInt64 + 1, []int64{math.MinInt64, math.MinInt64 + 1}},
		{math.MinInt64, math.MaxInt64, nil},
	} {
		it := NewIota(c.from, c.to)
		if err := it.Open(testCtx()); err != nil {
			t.Fatal(err)
		}
		n := len(c.want)
		if c.want == nil {
			n = 600 // past two slabs
		}
		for k := 0; k < n; k++ {
			el, ok, err := it.Next()
			if want := c.from + int64(k); !ok || err != nil || el.Value != any(want) {
				t.Fatalf("iota(%d,%d) value %d = %#v, %t, %v; want %d", c.from, c.to, k, el.Value, ok, err, want)
			}
		}
		if _, ok, _ := it.Next(); ok && c.want != nil {
			t.Errorf("iota(%d,%d) emits past %d", c.from, c.to, c.to)
		}
	}
}

func TestCount(t *testing.T) {
	got := drainValues(t, NewCount(NewIota(1, 7)), nil)
	if !reflect.DeepEqual(got, []any{int64(7)}) {
		t.Errorf("count = %v, want [7]", got)
	}
	if got := drainValues(t, NewCount(NewSlice()), nil); !reflect.DeepEqual(got, []any{int64(0)}) {
		t.Errorf("count of empty = %v, want [0]", got)
	}
}

func TestCountCarriesMakespanTimestamp(t *testing.T) {
	// The result of count() carries the timestamp of the last input — the
	// basis of the paper's bandwidth measurements.
	in := &Slice{Elements: []Element{
		{Value: int64(1), At: 100},
		{Value: int64(2), At: 5000},
		{Value: int64(3), At: 2000},
	}}
	c := NewCount(in)
	ctx := testCtx()
	if err := c.Open(ctx); err != nil {
		t.Fatal(err)
	}
	el, ok, err := c.Next()
	if err != nil || !ok {
		t.Fatalf("next: %v %v", ok, err)
	}
	if el.At < 5000 {
		t.Errorf("count timestamp %v predates last input (5000)", el.At)
	}
}

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		in   []any
		want any
	}{
		{"ints", []any{int64(1), int64(2), int64(3)}, int64(6)},
		{"floats", []any{1.5, 2.5}, 4.0},
		{"mixed", []any{int64(1), 2.5}, 3.5},
		{"empty", nil, int64(0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := drainValues(t, NewSum(NewSlice(tt.in...)), nil)
			if !reflect.DeepEqual(got, []any{tt.want}) {
				t.Errorf("sum = %v, want [%v]", got, tt.want)
			}
		})
	}
	op := NewSum(NewSlice("nope"))
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := op.Next(); err == nil {
		t.Error("sum of a string should fail")
	}
}

func TestStreamOfIsIdentity(t *testing.T) {
	got := drainValues(t, NewStreamOf(NewIota(1, 3)), nil)
	if !reflect.DeepEqual(got, []any{int64(1), int64(2), int64(3)}) {
		t.Errorf("streamof = %v", got)
	}
}

func TestMapFnAndFilter(t *testing.T) {
	double := NewMapFn("double", NewIota(1, 4), func(v any) (any, vtime.Duration, error) {
		return v.(int64) * 2, 10, nil
	})
	got := drainValues(t, double, nil)
	if !reflect.DeepEqual(got, []any{int64(2), int64(4), int64(6), int64(8)}) {
		t.Errorf("map = %v", got)
	}
	even := NewFilter("even", NewIota(1, 6), func(v any) (bool, error) {
		return v.(int64)%2 == 0, nil
	})
	got = drainValues(t, even, nil)
	if !reflect.DeepEqual(got, []any{int64(2), int64(4), int64(6)}) {
		t.Errorf("filter = %v", got)
	}
}

func TestOddEven(t *testing.T) {
	arr := []float64{10, 11, 12, 13, 14, 15}
	odd := drainValues(t, NewOdd(NewSlice(any(arr))), nil)
	if !reflect.DeepEqual(odd, []any{[]float64{11, 13, 15}}) {
		t.Errorf("odd = %v", odd)
	}
	even := drainValues(t, NewEven(NewSlice(any(arr))), nil)
	if !reflect.DeepEqual(even, []any{[]float64{10, 12, 14}}) {
		t.Errorf("even = %v", even)
	}
	bad := NewOdd(NewSlice("x"))
	if err := bad.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bad.Next(); err == nil {
		t.Error("odd of a string should fail")
	}
}

func TestGrep(t *testing.T) {
	files := NewMapFileTable(
		[]string{"a.txt"},
		map[string]string{"a.txt": "red fox\nblue sky\nred door"},
	)
	ctx := testCtx()
	ctx.Files = files
	got := drainValues(t, NewGrep("red", "a.txt"), ctx)
	if !reflect.DeepEqual(got, []any{"red fox", "red door"}) {
		t.Errorf("grep = %v", got)
	}
	if err := NewGrep("x", "missing.txt").Open(ctx); err == nil {
		t.Error("grep of a missing file should fail")
	}
	if err := NewGrep("x", "a.txt").Open(testCtx()); !errors.Is(err, ErrNoFileTable) {
		t.Errorf("grep without file table: err = %v, want ErrNoFileTable", err)
	}
}

func TestMapFileTable(t *testing.T) {
	ft := NewMapFileTable([]string{"one", "two"}, map[string]string{"one": "1"})
	name, err := ft.Name(1)
	if err != nil || name != "one" {
		t.Errorf("Name(1) = %q, %v", name, err)
	}
	if _, err := ft.Name(0); err == nil {
		t.Error("Name(0) should fail (1-based)")
	}
	if _, err := ft.Name(3); err == nil {
		t.Error("Name(3) should fail")
	}
	if _, err := ft.Read("two"); err == nil {
		t.Error("Read of a name without contents should fail")
	}
}

func TestSourceOperator(t *testing.T) {
	ctx := testCtx()
	ctx.Sources = map[string]SourceFunc{
		"s": func(*Ctx) Operator { return NewIota(1, 2) },
	}
	got := drainValues(t, NewSource("s"), ctx)
	if !reflect.DeepEqual(got, []any{int64(1), int64(2)}) {
		t.Errorf("source = %v", got)
	}
	if err := NewSource("missing").Open(ctx); err == nil {
		t.Error("unknown source should fail")
	}
	if err := NewSource("s").Open(testCtx()); err == nil {
		t.Error("no sources configured should fail")
	}
	if _, _, err := NewSource("s").Next(); err == nil {
		t.Error("Next before Open should fail")
	}
}

func TestCtxChargeWithoutCPU(t *testing.T) {
	var ctx Ctx
	if got := ctx.Charge(100, 50); got != 150 {
		t.Errorf("charge = %v, want 150", got)
	}
	var nilCtx *Ctx
	if got := nilCtx.Charge(100, 50); got != 150 {
		t.Errorf("nil ctx charge = %v, want 150", got)
	}
}

// TestCtxChargeAllocatesNothing: an operator's CPU charge is one keyed
// request through vtime.Submit, free of allocations.
func TestCtxChargeAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := &Ctx{CPU: vtime.NewResource("cpu"), Owner: "q1", ID: "q1/rp-bg-1"}
	at := vtime.Time(0)
	if n := testing.AllocsPerRun(100, func() { at = ctx.Charge(at, 50) }); n != 0 {
		t.Errorf("Ctx.Charge allocates %v times, want 0", n)
	}
	if ctx.Seq != 101 {
		t.Errorf("Seq = %d after 101 charges", ctx.Seq)
	}
}
