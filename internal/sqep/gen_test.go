package sqep

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"scsq/internal/marshal"
	"scsq/internal/race"
)

// TestGenArrayNextAllocatesNothing: every element carries the one value Open
// boxed, and that value still holds the size's template, whose encoding
// Encoding hands out.
func TestGenArrayNextAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := NewGenArray(8000, 1000)
	if err := g.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	first, ok, err := g.Next()
	if !ok || err != nil {
		t.Fatalf("first element: ok=%v err=%v", ok, err)
	}
	arr := first.Value.([]float64)
	if _, ok := Encoding(arr); !ok || len(arr) != 1000 {
		t.Fatalf("the boxed value holds %d floats, template %v", len(arr), ok)
	}
	if n := testing.AllocsPerRun(100, func() {
		el, ok, err := g.Next()
		if got, _ := el.Value.([]float64); !ok || err != nil || len(got) != len(arr) || &got[0] != &arr[0] {
			t.Fatalf("element: ok=%v err=%v, not the template", ok, err)
		}
	}); n != 0 {
		t.Errorf("GenArray.Next allocates %v times, want 0", n)
	}
}

// TestGenArrayConcurrentOpensShareOneTemplate: gen_arrays of different sizes
// opened at once see arrays of their own length, capped at it, with element
// i = i mod 997, and each is its size's one template, whose encoding Encoding
// hands out. The cache never holds more than its bound, and when it restarts
// a view handed out before still reads correctly but is no template any more;
// neither is an array larger than the bound.
func TestGenArrayConcurrentOpensShareOneTemplate(t *testing.T) {
	resetGenTemplates()
	sizes := []int{1, 8, 24, 1000, 8000, 300000, 2400000}
	views := make([][]float64, len(sizes))
	var wg sync.WaitGroup
	for i, size := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := NewGenArray(size, 1)
			if err := g.Open(testCtx()); err != nil {
				t.Error(err)
				return
			}
			el, ok, err := g.Next()
			if err != nil || !ok {
				t.Errorf("gen_array(%d,1): %t, %v", size, ok, err)
				return
			}
			views[i] = el.Value.([]float64)
		}()
	}
	wg.Wait()
	for i, size := range sizes {
		v := views[i]
		if want := max(1, size/8); len(v) != want || cap(v) != want {
			t.Fatalf("gen_array(%d): len %d cap %d, want both %d", size, len(v), cap(v), want)
		}
		checkTemplate(t, v)
		if again := sharedTemplate(len(v)).([]float64); &again[0] != &v[0] {
			t.Errorf("gen_array(%d): a second open got another array", size)
		}
		enc, ok := Encoding(v)
		want, _ := marshal.AppendArray(nil, v)
		if !ok || !bytes.Equal(enc, want) {
			t.Fatalf("gen_array(%d): Encoding = %t, %d bytes; want the %d bytes of AppendArray", size, ok, len(enc), len(want))
		}
		if _, ok := Encoding(slices.Clone(v)); ok {
			t.Errorf("gen_array(%d): Encoding took a clone for the template", size)
		}
	}
	checkCacheBound(t)

	// Templates a third of the bound each restart the cache by the third.
	early := views[3]
	big := genCacheBytes / 8 / 3
	for k := 0; k < 4; k++ {
		sharedTemplate(big + k)
		checkCacheBound(t)
	}
	genTemplates.mu.Lock()
	_, kept := genTemplates.m[len(early)]
	genTemplates.mu.Unlock()
	if kept {
		t.Fatal("the cache kept every size past its bound")
	}
	checkTemplate(t, early)
	if _, ok := Encoding(early); ok {
		t.Error("Encoding took a view from before the restart for a template")
	}
	if _, ok := Encoding(sharedTemplate(len(early)).([]float64)); !ok {
		t.Error("Encoding rejected the new template of a size seen before the restart")
	}
	checkCacheBound(t)

	// An array larger than the bound is made for its gen_array and never
	// cached.
	huge := sharedTemplate(genCacheBytes / 8).([]float64)
	checkTemplate(t, huge)
	if _, ok := Encoding(huge); ok {
		t.Error("Encoding took an array past the cache's bound for a template")
	}
	checkCacheBound(t)
}

func resetGenTemplates() {
	c := &genTemplates
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m, c.bytes = nil, 0
}

func checkTemplate(t *testing.T, v []float64) {
	t.Helper()
	for j, x := range v {
		if x != float64(j%997) {
			t.Fatalf("template of %d: element %d = %v, want %d", len(v), j, x, j%997)
		}
	}
}

// checkCacheBound holds the template cache to its byte bound and its count of
// bytes to the templates it holds.
func checkCacheBound(t *testing.T) {
	t.Helper()
	c := &genTemplates
	c.mu.Lock()
	defer c.mu.Unlock()
	held := 0
	for n, tmpl := range c.m {
		if len(tmpl.arr) != n {
			t.Fatalf("template of %d elements filed under %d", len(tmpl.arr), n)
		}
		held += 8 * (n + 1)
	}
	if held != c.bytes || held > genCacheBytes {
		t.Fatalf("cache holds %d bytes and counts %d, bound %d", held, c.bytes, genCacheBytes)
	}
}

// TestArrayOperatorsLeaveTheirInputAlone: every gen_array element is one
// shared array, and a receiver's elements live in storage it reuses, so an
// operator that takes arrays must copy out what it changes. Each one here
// runs over elements that all alias one array, which must come out as it went
// in.
func TestArrayOperatorsLeaveTheirInputAlone(t *testing.T) {
	shared := sharedTemplate(16).([]float64)
	pristine := slices.Clone(shared)
	input := func() Operator {
		var els []Element
		for _, src := range []string{"odd", "even", "odd", "even"} {
			els = append(els, Element{Value: shared, Src: src})
		}
		return &Slice{Elements: els}
	}
	ops := map[string]Operator{
		"fft":          NewFFT(input()),
		"odd":          NewOdd(input()),
		"even":         NewEven(input()),
		"radixcombine": NewRadixCombine(input(), "odd", "even"),
		"count":        NewStreamOf(NewCount(input())),
		"limit":        NewLimit(input(), 3),
		"filter":       NewFilter("all", input(), func(any) (bool, error) { return true, nil }),
		"fft(odd)":     NewFFT(NewOdd(input())),
	}
	for name, op := range ops {
		if got := drainValues(t, op, nil); len(got) == 0 {
			t.Errorf("%s produced nothing", name)
		}
		if !reflect.DeepEqual(shared, pristine) {
			t.Fatalf("%s wrote through its input array: %v", name, shared)
		}
	}
}
