package vtime

import (
	"reflect"
	"testing"
)

func TestUseAsOwnerAccounting(t *testing.T) {
	r := NewResource("nic")
	r.UseAs("q1", 0, 20)
	r.UseAs("q2", 0, 5)
	r.UseAs("q2", 0, 7)
	r.UseAs(AnonymousOwner, 0, 3) // anonymous: aggregate only

	if got := r.BusyTimeBy("q1"); got != 20 {
		t.Errorf("BusyTimeBy(q1) = %v, want 20", got)
	}
	if got := r.BusyTimeBy("q2"); got != 12 {
		t.Errorf("BusyTimeBy(q2) = %v, want 12", got)
	}
	if got := r.BusyTimeBy("q3"); got != 0 {
		t.Errorf("BusyTimeBy(q3) = %v, want 0", got)
	}
	// Anonymous Use is accounted under the reserved AnonymousOwner key, so
	// the per-owner totals sum to BusyTime.
	if got := r.BusyTimeBy(AnonymousOwner); got != 3 {
		t.Errorf("BusyTimeBy(AnonymousOwner) = %v, want 3", got)
	}
	want := map[string]Duration{"q1": 20, "q2": 12, AnonymousOwner: 3}
	got := r.OwnerBusy()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OwnerBusy = %v, want %v", got, want)
	}
	var sum Duration
	for _, v := range got {
		sum += v
	}
	if sum != r.BusyTime() {
		t.Errorf("owner totals sum to %v, want BusyTime %v", sum, r.BusyTime())
	}

	// Folding moves finished owners into the retired aggregate: the table
	// shrinks, the total does not, and folding again changes nothing.
	r.FoldOwner("q1")
	r.FoldOwner("q2")
	r.FoldOwner("q2")
	r.FoldOwner("q3") // never charged
	want = map[string]Duration{RetiredOwner: 32, AnonymousOwner: 3}
	if got := r.OwnerBusy(); !reflect.DeepEqual(got, want) {
		t.Errorf("OwnerBusy after folding = %v, want %v", got, want)
	}
	if r.BusyTime() != 35 {
		t.Errorf("BusyTime after folding = %v, want 35", r.BusyTime())
	}
}

func TestFairSliceChunksAroundOtherTenants(t *testing.T) {
	// Unsliced: a 20-unit request must find one contiguous gap, so it
	// serializes behind the other tenant's reservations.
	whole := NewResource("nic")
	whole.UseAs("q2", 10, 5) // [10,15)
	whole.UseAs("q2", 25, 5) // [25,30)
	if s, e := whole.UseAs("q1", 0, 20); s != 30 || e != 50 {
		t.Fatalf("unsliced placement = [%v,%v), want [30,50)", s, e)
	}

	// Sliced: the same request is placed as earliest-fit chunks that weave
	// through the gaps between the other tenant's reservations.
	sliced := NewResource("nic")
	sliced.SetFairSlice(10)
	sliced.UseAs("q2", 10, 5) // [10,15)
	sliced.UseAs("q2", 25, 5) // [25,30)
	if s, e := sliced.UseAs("q1", 0, 20); s != 0 || e != 25 {
		t.Fatalf("sliced placement = [%v,%v), want [0,25): chunks [0,10)+[15,25)", s, e)
	}
	// Busy accounting charges the service time, not the span.
	if got := sliced.BusyTimeBy("q1"); got != 20 {
		t.Errorf("BusyTimeBy(q1) = %v, want 20", got)
	}
}

func TestFairSliceIdentityWhenUncontended(t *testing.T) {
	// On an idle resource the chunk chain is contiguous: slicing must not
	// change single-tenant schedules (the seed figures stay bit-identical).
	whole := NewResource("nic")
	sliced := NewResource("nic")
	sliced.SetFairSlice(10)
	for _, req := range []struct {
		ready   Time
		service Duration
	}{{0, 35}, {5, 12}, {100, 7}} {
		ws, we := whole.UseAs("q1", req.ready, req.service)
		ss, se := sliced.UseAs("q1", req.ready, req.service)
		if ws != ss || we != se {
			t.Fatalf("ready=%v service=%v: sliced [%v,%v) != whole [%v,%v)",
				req.ready, req.service, ss, se, ws, we)
		}
	}
}

func TestSetFairSliceNegativeDisables(t *testing.T) {
	r := NewResource("nic")
	r.SetFairSlice(-1)
	if s, e := r.UseAs("q1", 0, 50); s != 0 || e != 50 {
		t.Fatalf("placement = [%v,%v), want whole [0,50)", s, e)
	}
}
