package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"scsq/internal/race"
	"scsq/internal/vtime"
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

// The families of the fold tests: the names the engine's processes use.
var (
	famRP    = &Family{Counters: []string{"rp.elements_out.", "rp.bytes_out."}, Gauges: []string{"rp.last_out."}}
	famRecv  = &Family{Gauges: []string{"rt.inbox_depth."}, Hists: []string{"recv.demarshal_vt."}}
	famNodes = &Family{Gauges: []string{"sched.nodes."}}
	famLink  = &Family{Counters: []string{"link.frames.", "link.bytes.", "link.drops."}}
)

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
	scopes["q1"].Block(famRP, "q1/rp-bg-1").Counter(0).Add(7)
	late := scopes["q1"].Block(famRP, "q1/rp-bg-2").Counter(0)
	late.Add(5)
	scopes["q12"].Block(famRP, "q12/rp-bg-1").Counter(0).Add(11)
	scopes["q2"].Block(famRP, "q2/rp-bg-1").Counter(0).Add(9)
	reg.Counter("rp.elements_out.q0/rp-bg-1").Add(1) // a plain name: in no scope
	reg.Counter("sched.submitted").Add(3)
	scopes["q1"].Block(famNodes, "q1").Gauge(0).Set(4)
	scopes["q2"].Block(famNodes, "q2").Gauge(0).Set(6)
	scopes["q1"].Block(famRecv, "q1/client").Gauge(0).Set(2)
	scopes["q1"].Block(famRecv, "q1/client").Histogram(0).Observe(8)
	scopes["q1"].Block(famRecv, "q1/rp-bg-2").Histogram(0).Observe(100)
	scopes["q2"].Block(famRecv, "q2/client").Histogram(0).Observe(3)

	before := reg.Snapshot()
	if got := before.ForQuery("q1"); len(got.Counters) != 4 || len(got.Gauges) != 5 || len(got.Histograms) != 2 {
		t.Errorf("q1's keys before the fold: %v", got)
	}
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
		t.Error("a counter registered by name was removed")
	}

	// A handle kept past the fold is detached, and no reader sees a block taken
	// from a folded scope.
	late.Inc()
	scopes["q1"].Block(famRP, "q1/rp-bg-9").Counter(0).Inc()
	if got := reg.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Errorf("an update after the fold reached the registry:\n%v\n%v", got, snap)
	}

	var nilReg *Registry
	nilReg.OpenScope("q1").Block(famRP, "x").Counter(0).Inc()
	nilReg.Shared(famLink, "x").Counter(0).Inc()
	nilReg.OpenScope("q1").Fold()
}

// TestBlockIdentity pins the registration contract: the same (family, id)
// yields the same block — in a scope, so a re-placed process counts on, and
// in the shared set, so every query dialing a link shares its counters — and
// a different family or id never does.
func TestBlockIdentity(t *testing.T) {
	reg := NewRegistry()
	sc := reg.OpenScope("q1")
	a := sc.Block(famRP, "q1/rp-bg-1")
	if sc.Block(famRP, "q1/rp-bg-1") != a {
		t.Error("a scope handed out two blocks for one identity")
	}
	if sc.Block(famRP, "q1/rp-bg-2") == a || sc.Block(famRecv, "q1/rp-bg-1") == a || reg.OpenScope("q2").Block(famRP, "q1/rp-bg-1") == a {
		t.Error("distinct identities share a block")
	}
	l := reg.Shared(famLink, "mpi:bg:1->bg:0")
	l.Counter(1).Add(100)
	if reg.Shared(famLink, "mpi:bg:1->bg:0") != l || reg.Shared(famLink, "mpi:bg:2->bg:0") == l {
		t.Error("shared blocks are not keyed by (family, id)")
	}
	if got := reg.Snapshot().Counters["link.bytes.mpi:bg:1->bg:0"]; got != 100 {
		t.Errorf("link.bytes.mpi:bg:1->bg:0 = %d, want 100", got)
	}
}

// TestFoldEquivalence is the fold's property: for random sets of blocks
// recording concurrently, what a reader sums, maximizes and merges over the
// live keys of a family is exactly what the family's retired keys hold once
// every scope is folded — and folding again moves nothing.
func TestFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 50; round++ {
		reg := NewRegistry()
		var scopes []*Scope
		var wg sync.WaitGroup
		var sum [2]int64
		var maxLast, count, hsum int64
		for q := 0; q < 1+rng.Intn(4); q++ {
			qid := fmt.Sprintf("q%d", q+1)
			sc := reg.OpenScope(qid)
			scopes = append(scopes, sc)
			for p := 0; p < rng.Intn(6); p++ {
				rp := sc.Block(famRP, fmt.Sprintf("%s/rp-bg-%d", qid, p))
				recv := sc.Block(famRecv, fmt.Sprintf("%s/rp-bg-%d", qid, p))
				n, last := int64(rng.Intn(1000)), int64(rng.Intn(1_000_000))
				sum[0] += n
				sum[1] += 8 * n
				maxLast = max(maxLast, last)
				count += n
				hsum += n * last
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int64(0); i < n; i++ {
						rp.Counter(0).Inc()
						rp.Counter(1).Add(8)
						recv.Histogram(0).Observe(vtime.Duration(last))
					}
					rp.Gauge(0).SetMax(last)
				}()
			}
		}
		wg.Wait()
		live := reg.Snapshot()
		if got := [2]int64{live.SumCounters("rp.elements_out."), live.SumCounters("rp.bytes_out.")}; got != sum {
			t.Fatalf("round %d: live sums %v, recorded %v", round, got, sum)
		}
		for _, sc := range scopes {
			sc.Fold()
		}
		folded := reg.Snapshot()
		for _, sc := range scopes {
			sc.Fold()
		}
		if again := reg.Snapshot(); !reflect.DeepEqual(folded, again) {
			t.Fatalf("round %d: folding twice moved something", round)
		}
		if count == 0 && len(folded.Counters) == 0 {
			continue // no process in any scope: nothing to retire
		}
		if n := len(folded.Counters) + len(folded.Gauges) + len(folded.Histograms); n > 5 {
			t.Fatalf("round %d: %d keys left after every scope folded: %v", round, n, folded)
		}
		if got := [2]int64{folded.Counters["rp.elements_out.retired"], folded.Counters["rp.bytes_out.retired"]}; got != sum {
			t.Fatalf("round %d: retired counters %v, recorded %v", round, got, sum)
		}
		if got := folded.Gauges["rp.last_out.retired"]; got != maxLast {
			t.Fatalf("round %d: rp.last_out.retired = %d, want the maximum %d", round, got, maxLast)
		}
		h := folded.Histograms["recv.demarshal_vt.retired"]
		var buckets int64
		for _, b := range h.Buckets {
			buckets += b.Count
		}
		if h.Count != count || h.SumNs != hsum || buckets != count || (count > 0 && h.MaxNs > maxLast) {
			t.Fatalf("round %d: recv.demarshal_vt.retired = %+v, want %d observations summing to %d", round, h, count, hsum)
		}
	}
}

// TestBlockAllocations is the wiring budget: a process's registration is its
// block (and one object per histogram) whatever the number of names in its
// family — no name is built, no map grows — and finding a hardware-keyed
// block that exists allocates nothing.
func TestBlockAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	reg := NewRegistry()
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("q1/rp-bg-%d", i)
	}
	for _, c := range []struct {
		fam  *Family
		want float64
	}{{famNodes, 1}, {famRP, 1}, {famLink, 1}, {famRecv, 2}} {
		var sc *Scope
		i := 0
		got := testing.AllocsPerRun(len(ids)-1, func() {
			if i == 0 {
				sc = reg.OpenScope("q1") // the one run AllocsPerRun does not count
			}
			sc.Block(c.fam, ids[i])
			i++
		})
		if got > c.want {
			t.Errorf("attaching a block of %d names: %.1f allocations, want <= %.0f",
				len(c.fam.Counters)+len(c.fam.Gauges)+len(c.fam.Hists), got, c.want)
		}
	}
	reg.Shared(famLink, ids[0])
	if got := testing.AllocsPerRun(100, func() { reg.Shared(famLink, ids[0]) }); got != 0 {
		t.Errorf("looking up an existing shared block: %.1f allocations, want 0", got)
	}
}
