package sqep

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestGenArrayConcurrentOpensShareOneTemplate: gen_arrays of different sizes
// opened at once — each growing the process-wide template under the others —
// see arrays of their own length, capped at it, with element i = i mod 997;
// a view handed out before the template grew is as good as one handed out
// after.
func TestGenArrayConcurrentOpensShareOneTemplate(t *testing.T) {
	genTemplate.mu.Lock()
	genTemplate.vals = nil // whatever earlier tests grew it to
	genTemplate.mu.Unlock()

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
		for j, x := range v {
			if x != float64(j%997) {
				t.Fatalf("gen_array(%d): element %d = %v, want %d", size, j, x, j%997)
			}
		}
	}
	// Later, smaller gen_arrays are prefixes of the one template.
	a, b := sharedTemplate(100), sharedTemplate(1000)
	if &a[0] != &b[0] {
		t.Error("two views of the grown template do not share storage")
	}
}

// TestArrayOperatorsLeaveTheirInputAlone: every gen_array element is one
// shared array, and a receiver's elements live in storage it reuses, so an
// operator that takes arrays must copy out what it changes. Each one here
// runs over elements that all alias one array, which must come out as it went
// in.
func TestArrayOperatorsLeaveTheirInputAlone(t *testing.T) {
	shared := sharedTemplate(16)
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
