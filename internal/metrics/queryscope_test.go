package metrics

import (
	"reflect"
	"testing"
)

func TestQueryScoped(t *testing.T) {
	cases := []struct {
		name, qid string
		want      bool
	}{
		// Path-segment form: the query id prefixes the process identity.
		{"rp.elements_out.q1/rp-bg-2", "q1", true},
		{"recv.bytes.q1/client", "q1", true},
		// Dotted-suffix form used by scheduler gauges.
		{"sched.nodes.q1", "q1", true},
		{"rt.sched.admission_wait_us.q1", "q1", true},
		// "q1" must not match "q12" in either form.
		{"rp.elements_out.q12/rp-bg-2", "q1", false},
		{"sched.nodes.q12", "q1", false},
		// Nor may the id match mid-identity or as a bare substring.
		{"rp.elements_out.freq1/rp", "q1", false},
		// A non-segment occurrence before a genuine segment must not mask it.
		{"rp.freq1/merge.q1/rp-bg-1", "q1", true},
		{"sched.submitted", "q1", false},
		{"anything", "", false},
	}
	for _, c := range cases {
		if got := QueryScoped(c.name, c.qid); got != c.want {
			t.Errorf("QueryScoped(%q, %q) = %v, want %v", c.name, c.qid, got, c.want)
		}
	}
}

func TestSnapshotForQuery(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rp.elements_out.q1/rp-bg-1").Add(7)
	reg.Counter("rp.elements_out.q2/rp-bg-1").Add(9)
	reg.Counter("rp.elements_out.q12/rp-bg-1").Add(11)
	reg.Counter("sched.submitted").Add(3)
	reg.Gauge("sched.nodes.q1").Set(4)
	reg.Gauge("sched.nodes.q2").Set(5)

	snap := reg.Snapshot().ForQuery("q1")
	if len(snap.Counters) != 1 || snap.Counters["rp.elements_out.q1/rp-bg-1"] != 7 {
		t.Errorf("ForQuery counters = %v, want only q1's rp counter", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges["sched.nodes.q1"] != 4 {
		t.Errorf("ForQuery gauges = %v, want only sched.nodes.q1", snap.Gauges)
	}
}

// TestRetireQueryFolds pins the fold: a folded query's counters and histograms are
// added into the same-prefix "retired" key, its gauges keep the maximum,
// prefix sums are unchanged, q1 never takes q12 with it, and folding twice
// changes nothing.
func TestRetireQueryFolds(t *testing.T) {
	reg := NewRegistry()
	scopes := make(map[string]*Scope)
	for _, qid := range []string{"q1", "q12", "q2"} {
		scopes[qid] = reg.OpenScope(qid)
	}
	reg.Counter("rp.elements_out.q1/rp-bg-1").Add(7)
	reg.Counter("rp.elements_out.q1/rp-bg-2").Add(5)
	reg.Counter("rp.elements_out.q12/rp-bg-1").Add(11)
	reg.Counter("rp.elements_out.q2/rp-bg-1").Add(9)
	reg.Counter("rp.elements_out.q0/rp-bg-1").Add(1) // no open scope: not remembered
	reg.Counter("sched.submitted").Add(3)
	reg.Gauge("sched.nodes.q1").Set(4)
	reg.Gauge("sched.nodes.q2").Set(6)
	reg.Gauge("rt.inbox_depth.q1/client").Set(2)
	reg.Histogram("recv.demarshal_vt.q1/client").Observe(8)
	reg.Histogram("recv.demarshal_vt.q1/rp-bg-2").Observe(100)
	reg.Histogram("recv.demarshal_vt.q2/client").Observe(3)

	before := reg.Snapshot()
	scopes["q1"].Fold()
	once := reg.Snapshot()
	scopes["q1"].Fold()
	snap := reg.Snapshot()
	if !reflect.DeepEqual(once, snap) {
		t.Errorf("folding again changed the registry:\n%v\n%v", once, snap)
	}

	if got := snap.ForQuery("q1"); len(got.Counters)+len(got.Gauges)+len(got.Histograms) != 0 {
		t.Errorf("q1 keys survive retirement: %v", got)
	}
	if got := snap.Counters["rp.elements_out.retired"]; got != 12 {
		t.Errorf("rp.elements_out.retired = %d, want 7+5", got)
	}
	if got, want := snap.SumCounters("rp.elements_out."), before.SumCounters("rp.elements_out."); got != want {
		t.Errorf("prefix sum moved: %d, was %d", got, want)
	}
	if got := snap.Counters["rp.elements_out.q12/rp-bg-1"]; got != 11 {
		t.Errorf("retiring q1 touched q12: %d", got)
	}
	if got := snap.Gauges["sched.nodes.retired"]; got != 4 {
		t.Errorf("sched.nodes.retired = %d, want 4", got)
	}
	if got := snap.Gauges["rt.inbox_depth.retired"]; got != 2 {
		t.Errorf("rt.inbox_depth.retired = %d, want 2", got)
	}
	h := snap.Histograms["recv.demarshal_vt.retired"]
	if h.Count != 2 || h.SumNs != 108 || h.MinNs != 8 || h.MaxNs != 100 || len(h.Buckets) != 2 {
		t.Errorf("recv.demarshal_vt.retired = %+v, want the two q1 observations", h)
	}

	// A second retirement folds into the same keys; gauges keep the maximum.
	scopes["q2"].Fold()
	snap = reg.Snapshot()
	if got := snap.Counters["rp.elements_out.retired"]; got != 21 {
		t.Errorf("rp.elements_out.retired = %d, want 21", got)
	}
	if got := snap.Gauges["sched.nodes.retired"]; got != 6 {
		t.Errorf("sched.nodes.retired = %d, want the larger 6", got)
	}
	if h := snap.Histograms["recv.demarshal_vt.retired"]; h.Count != 3 || h.MinNs != 3 {
		t.Errorf("recv.demarshal_vt.retired = %+v, want q2's observation folded in", h)
	}
	if _, ok := snap.Counters["rp.elements_out.q0/rp-bg-1"]; !ok {
		t.Error("an unscoped query's counter was removed")
	}

	// A metric created under a folded scope's id is an ordinary shared key.
	reg.Counter("rp.elements_out.q1/rp-bg-9").Inc()
	scopes["q1"].Fold()
	if got := reg.Snapshot().Counters["rp.elements_out.q1/rp-bg-9"]; got != 1 {
		t.Errorf("a key created after the fold was folded: %d", got)
	}

	var nilReg *Registry
	nilReg.OpenScope("q1").Fold()
}
