package bench

import "testing"

func TestMultiTenantShape(t *testing.T) {
	// A test-sized contention sweep.
	pts, err := multiTenant([]int{1, 2}, 2, workload{60_000, 10})
	if err != nil {
		t.Fatalf("multiTenant: %v", err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8 (4 series at k=1, 2)", len(pts))
	}
	for _, k := range []int{1, 2} {
		for _, series := range []string{"aggregate", "per-query", "serialized"} {
			if p := value(t, pts, k, series); p.Value <= 0 {
				t.Fatalf("k=%d: %s = %+v, want positive bandwidth", k, series, p)
			}
		}
		if p := value(t, pts, k, "adm-wait"); p.Value < 0 || p.Unit != "us" {
			t.Fatalf("k=%d: admission wait %+v", k, p)
		}
	}
	// A lone tenant's "concurrent" batch is by definition the serialized
	// baseline.
	agg1, ser1 := value(t, pts, 1, "aggregate"), value(t, pts, 1, "serialized")
	if agg1.Value != ser1.Value {
		t.Fatalf("k=1 aggregate %v != serialized %v", agg1.Value, ser1.Value)
	}
	// The acceptance criterion: two concurrent Query-1 instances deliver
	// strictly more aggregate bandwidth than running them back to back.
	if agg2, ser2 := value(t, pts, 2, "aggregate"), value(t, pts, 2, "serialized"); agg2.Value <= ser2.Value {
		t.Fatalf("k=2 aggregate %.3f Mbps not strictly above serialized %.3f Mbps", agg2.Value, ser2.Value)
	}
}
