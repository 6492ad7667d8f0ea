package bench

import "testing"

// TestSysqShape runs the tiny system-catalog figure end to end: every
// latency section reports, and the non-perturbation gate inside the figure
// (bit-identical Figure 6 makespans with an active catalog subscriber, on
// every one of the 3 pairs Tiny sizes) must hold or the run errors.
func TestSysqShape(t *testing.T) {
	pts, err := runSysq(Sizing{Tiny: true})
	if err != nil {
		t.Fatalf("sysq: %v", err)
	}
	for _, table := range []string{"sys_sessions", "sys_nodes", "sys_links", "sys_rps", "sys_metrics"} {
		for _, series := range []string{"snap", "query"} {
			if p := value(t, pts, table, series); p.Value <= 0 || p.Unit != "ns/op" || p.N <= 1 {
				t.Errorf("%s %s reports %+v, want positive ns/op over many iterations", table, series, p)
			}
		}
		if p := value(t, pts, table, "rows"); p.Value < 0 {
			t.Errorf("%s has %v rows", table, p.Value)
		}
	}
	if value(t, pts, "sys_nodes", "rows").Value == 0 {
		t.Error("sys_nodes snapshot is empty on a populated engine")
	}
	// The bare/observed pair is a median over 3 alternating pairs, not
	// one timing per side.
	for _, series := range []string{"bare", "observed"} {
		if p := value(t, pts, "buf=30000", series); p.Value <= 0 || p.N != 3 || p.Stdev <= 0 || p.Unit != "ms" {
			t.Errorf("%s wall time %+v, want a positive median over 3 runs with spread", series, p)
		}
	}
}
