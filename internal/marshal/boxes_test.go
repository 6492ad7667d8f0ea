package marshal

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"scsq/internal/race"
)

// TestBoxesBehaveLikeCompilerBoxes holds a slab-boxed value to the
// compiler's box of the same value under ==, !=, map keys, type switches,
// reflect and fmt, across the static-box edge and the ends of each type.
func TestBoxesBehaveLikeCompilerBoxes(t *testing.T) {
	var b Boxes
	var values []any
	for _, v := range []int64{0, 255, 256, -1, math.MinInt64, math.MaxInt64} {
		values = append(values, v)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, math.Inf(-1), math.MaxFloat64} {
		values = append(values, v)
	}
	for _, want := range values {
		var got any
		switch x := want.(type) {
		case int64:
			got = b.Int(x, 0)
		case float64:
			got = b.Float(x)
		}
		twin := reflect.ValueOf(want).Interface() // a second compiler box
		if (got == want) != (twin == want) || (got != want) != (twin != want) {
			t.Errorf("%#v: slab box == compiler box is %t, compiler boxes %t", want, got == want, twin == want)
		}
		m := map[any]int{want: 1}
		if _, ok := m[got]; ok != (twin == want) {
			t.Errorf("%#v: map lookup by the slab box found %t", want, ok)
		}
		m[got] = 2
		if wantLen := map[bool]int{true: 1, false: 2}[twin == want]; len(m) != wantLen {
			t.Errorf("%#v: map keyed by both boxes has %d keys, want %d", want, len(m), wantLen)
		}
		switch x := got.(type) {
		case int64:
			if x != want.(int64) || reflect.ValueOf(got).Int() != x {
				t.Errorf("%#v: type switch reads %d, reflect %d", want, x, reflect.ValueOf(got).Int())
			}
		case float64:
			w := math.Float64bits(want.(float64))
			if math.Float64bits(x) != w || math.Float64bits(reflect.ValueOf(got).Float()) != w {
				t.Errorf("%#v: type switch reads %v, reflect %v", want, x, reflect.ValueOf(got).Float())
			}
		default:
			t.Errorf("%#v: type switch sees %T", want, got)
		}
		if g, w := fmt.Sprintf("%v %#v", got, got), fmt.Sprintf("%v %#v", want, want); g != w {
			t.Errorf("fmt prints %q, want %q", g, w)
		}
	}
	var nilBoxes *Boxes
	if g := nilBoxes.Int(1000, 0); g != any(int64(1000)) {
		t.Errorf("nil Boxes boxed 1000 as %#v", g)
	}
}

// TestBoxesSurviveGC keeps every 97th of 10 000 boxed values past two
// collections and a heap of garbage, the Boxes itself dropped.
func TestBoxesSurviveGC(t *testing.T) {
	want := func(i int) any {
		if i%2 == 0 {
			return int64(1_000_000 + i)
		}
		return float64(i) + 0.25
	}
	kept := map[int]any{}
	func() {
		b := new(Boxes)
		for i := 0; i < 10_000; i++ {
			var v any
			switch x := want(i).(type) {
			case int64:
				v = b.Int(x, 0)
			case float64:
				v = b.Float(x)
			}
			if i%97 == 0 {
				kept[i] = v
			}
		}
	}()
	var garbage [][]uint64
	for round := 0; round < 2; round++ {
		runtime.GC()
		for i := 0; i < 1000; i++ {
			g := make([]uint64, slabWords)
			for j := range g {
				g[j] = 0xdeadbeef
			}
			garbage = append(garbage, g)
		}
		garbage = garbage[:0]
	}
	for i, v := range kept {
		if v != want(i) {
			t.Errorf("value %d reads %#v after GC, want %#v", i, v, want(i))
		}
	}
}

// TestBoxesNeverRewriteAPublishedSlot boxes across many slabs, some sized
// by what is left, and finds every earlier value still as it was boxed.
func TestBoxesNeverRewriteAPublishedSlot(t *testing.T) {
	var b Boxes
	var got, want []any
	for i := 0; i < 3*slabWords; i++ {
		left := uint64(0)
		if i%3 == 0 {
			left = 3 // a small slab whenever one opens here
		}
		v := int64(i)*7919 + 256
		got, want = append(got, b.Int(v, left)), append(want, v)
		got, want = append(got, b.Float(float64(v)/3)), append(want, float64(v)/3)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("after %d values, value %d reads %#v, want %#v", len(got), j, got[j], want[j])
			}
		}
	}
}

// TestBoxesSlabSizes: slabs start small and double to slabWords; a count
// left sizes the next one to what is still to come; small values take no
// word.
func TestBoxesSlabSizes(t *testing.T) {
	var b Boxes
	b.Int(255, 1)
	b.Float(0)
	if b.slab != nil {
		t.Fatalf("static boxes opened a slab of %d words", cap(b.slab))
	}
	var caps []int
	for i := 0; i < 1000; i++ {
		if b.Int(256, 0); len(b.slab) == 1 {
			caps = append(caps, cap(b.slab))
		}
	}
	if want := []int{4, 8, 16, 32, 64, 128, 256, 256, 256}; fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Errorf("slab sizes %v, want %v", caps, want)
	}
	for _, c := range []struct {
		left uint64
		want int
	}{{1, 1}, {3, 3}, {slabWords + 1, slabWords}, {math.MaxUint64, slabWords}} {
		b.slab = b.slab[:cap(b.slab)]
		b.Int(-1, c.left)
		if cap(b.slab) != c.want {
			t.Errorf("%d left: a slab of %d words, want %d", c.left, cap(b.slab), c.want)
		}
	}
}

// TestBoxesAllocations: a Boxes allocates one slab per slabWords values
// once its slabs have doubled up to that size.
func TestBoxesAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var b Boxes
	buf := AppendInt(nil, 123_456)
	const values = 16 * slabWords
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < values; i++ {
		if _, _, err := b.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := float64(after.Mallocs-before.Mallocs) / values; n > 1.0/64 {
		t.Errorf("boxed Decode of an integer: %v allocs per value, want at most 1/64", n)
	}
}
