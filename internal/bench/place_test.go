package bench

import "testing"

// TestMultiTenantShape reads the place figure at k = 1, 2 on its Tiny torus
// and asserts what holds at the paper's arrays.
func TestMultiTenantShape(t *testing.T) {
	pts, err := placeSweep([3]int{8, 8, 4}, []int{1, 2})
	if err != nil {
		t.Fatalf("placeSweep: %v", err)
	}
	at := func(k int, series string) float64 { return value(t, pts, k, series).Value }
	// A lone tenant is the serialized baseline by definition, however it
	// is placed.
	if g, p, s := at(1, "greedy"), at(1, "planned"), at(1, "serialized"); g != s || p != s {
		t.Fatalf("k=1: greedy %v, planned %v, serialized %v; want all equal", g, p, s)
	}
	for _, k := range []int{1, 2} {
		if g, p := at(k, "greedy"), at(k, "planned"); p < g {
			t.Errorf("k=%d: planned %.1f Mbps below greedy %.1f", k, p, g)
		}
	}
	// The planner gives each tenant a pset of its own, so two tenants beat
	// running them back to back.
	if p, s := at(2, "planned"), at(2, "serialized"); p <= s {
		t.Errorf("k=2: planned %.1f Mbps not above serialized %.1f", p, s)
	}
	// Greedy packs both tenants into pset 0: their four streams share one
	// I/O-node forwarder, whose per-message switching cost rises from 1/2
	// to 3/4 of IOSwitchCost, so together they read below serialized.
	if g, s := at(2, "greedy"), at(2, "serialized"); g >= s {
		t.Errorf("k=2: greedy %.1f Mbps not below serialized %.1f (the recorded inversion)", g, s)
	}
}
