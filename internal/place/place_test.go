package place

import (
	"math/rand"
	"runtime"
	"testing"

	"scsq/internal/cndb"
	"scsq/internal/hw"
	"scsq/internal/race"
)

// harness builds an environment plus its bg/be databases and a planner.
func harness(t *testing.T, cfg Config, opts ...hw.Option) (*hw.Env, map[hw.ClusterName]*cndb.DB, *Planner) {
	t.Helper()
	env, err := hw.NewLOFAR(opts...)
	if err != nil {
		t.Fatalf("NewLOFAR: %v", err)
	}
	dbs := make(map[hw.ClusterName]*cndb.DB)
	for _, c := range []hw.ClusterName{hw.BlueGene, hw.BackEnd, hw.FrontEnd} {
		db, err := cndb.New(env, c)
		if err != nil {
			t.Fatalf("cndb.New(%s): %v", c, err)
		}
		dbs[c] = db
	}
	return env, dbs, New(env, dbs, cfg)
}

// lease allocates node id to owner directly through the selection path.
func lease(t *testing.T, db *cndb.DB, owner string, id int) {
	t.Helper()
	seq, err := cndb.NewSequence(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.SelectFor(owner, seq)
	if err != nil || got != id {
		t.Fatalf("lease %s->%d: got %d err %v", owner, id, got, err)
	}
}

// A second tenant must land in a pset of its own: the planner's first pick
// avoids the I/O-node forwarder the first tenant's leases already share,
// and its second pick co-locates with its own first for torus locality.
func TestSpreadsTenantsAcrossPsets(t *testing.T) {
	_, dbs, p := harness(t, Config{})
	bg := dbs[hw.BlueGene]
	lease(t, bg, "q1", 0)
	lease(t, bg, "q1", 1)

	order, ok := p.PlanPlacement("q2", hw.BlueGene, nil, 1)
	if !ok || len(order) == 0 {
		t.Fatalf("plan failed: ok=%v order=%v", ok, order)
	}
	if got := order[0]; got != 8 {
		t.Fatalf("first pick for q2: node %d, want 8 (lowest id outside q1's pset)", got)
	}
	lease(t, bg, "q2", order[0])

	order2, ok := p.PlanPlacement("q2", hw.BlueGene, nil, 1)
	if !ok || len(order2) == 0 {
		t.Fatalf("second plan failed: ok=%v", ok)
	}
	if got := order2[0]; got != 9 {
		t.Fatalf("second pick for q2: node %d, want 9 (own pset, one hop)", got)
	}
}

// Batch lookahead: planning a bag counts earlier picks as occupied and
// owned, so a two-slot plan on an empty cluster picks adjacent nodes
// deterministically.
func TestBatchLookaheadPlansWholeBag(t *testing.T) {
	_, _, p := harness(t, Config{})
	order, ok := p.PlanPlacement("q1", hw.BlueGene, nil, 2)
	if !ok || len(order) < 2 {
		t.Fatalf("plan failed: ok=%v order=%v", ok, order)
	}
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("bag picks: %v, want [0 1 ...]", order[:2])
	}
	ds := p.Decisions()
	if len(ds) != 1 {
		t.Fatalf("decisions: %d, want 1", len(ds))
	}
	d := ds[0]
	if d.Batch != 2 || d.Fallback || len(d.Chosen) != 2 || d.Chosen[0] != 0 || d.Chosen[1] != 1 {
		t.Fatalf("decision: %+v", d)
	}
	if d.ChosenString() != "0,1" {
		t.Fatalf("ChosenString: %q", d.ChosenString())
	}
}

// The planner only reorders what the sequence allows: out-of-range ids and
// duplicates are dropped, nothing outside the candidate set appears, and an
// entirely inadmissible set reports a fallback decision.
func TestPermutesOnlyCandidates(t *testing.T) {
	_, dbs, p := harness(t, Config{})
	bg := dbs[hw.BlueGene]
	order, ok := p.PlanPlacement("q1", hw.BlueGene, []int{5, 3, 99, 3, -1}, 1)
	if !ok {
		t.Fatalf("plan failed")
	}
	if len(order) != 2 {
		t.Fatalf("order %v, want a permutation of {3,5}", order)
	}
	seen := map[int]bool{order[0]: true, order[1]: true}
	if !seen[3] || !seen[5] {
		t.Fatalf("order %v, want a permutation of {3,5}", order)
	}

	bg.MarkDead(7)
	if _, ok := p.PlanPlacement("q1", hw.BlueGene, []int{7, 100}, 1); ok {
		t.Fatalf("plan over dead+out-of-range candidates should fall back")
	}
	ds := p.Decisions()
	last := ds[len(ds)-1]
	if !last.Fallback {
		t.Fatalf("expected fallback decision, got %+v", last)
	}
}

// The decision log is a ring of the last maxDecisions: after 1 000 decisions
// it returns 489–1000, oldest first.
func TestDecisionsKeepTheLatestInOrder(t *testing.T) {
	_, _, p := harness(t, Config{})
	if ds := p.Decisions(); len(ds) != 0 {
		t.Fatalf("a new planner has %d decisions", len(ds))
	}
	for i := 1; i <= 1000; i++ {
		p.mu.Lock()
		p.record(Decision{Batch: i})
		p.mu.Unlock()
		if i == 300 || i == maxDecisions || i == 1000 {
			ds := p.Decisions()
			first := max(1, i-maxDecisions+1)
			if len(ds) != i-first+1 {
				t.Fatalf("after %d decisions: %d retained", i, len(ds))
			}
			for j, d := range ds {
				if d.ID != first+j || d.Batch != d.ID {
					t.Fatalf("after %d decisions: entry %d is %+v, want ID %d", i, j, d, first+j)
				}
			}
		}
	}
}

// An unknown cluster (no database) falls back rather than inventing nodes.
func TestUnknownClusterFallsBack(t *testing.T) {
	_, _, p := harness(t, Config{})
	if _, ok := p.PlanPlacement("q1", hw.ClusterName("nope"), nil, 1); ok {
		t.Fatalf("unknown cluster must fall back")
	}
}

// Seeded property test: whatever the cluster state, candidate set, batch
// size, every node the planner proposes satisfies
// the sequence's constraints — in range, within the candidate set, alive,
// unique, and unoccupied on exclusive clusters — and planning is a pure
// function of the snapshot (same state ⇒ same order).
func TestPlannedPlacementsAlwaysAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9_1ACE))
	dims := [][3]int{{4, 4, 2}, {4, 4, 4}, {8, 4, 4}}
	for iter := 0; iter < 150; iter++ {
		d := dims[rng.Intn(len(dims))]
		_, dbs, p := harness(t, Config{}, hw.Config{Torus: d})
		cluster := hw.BlueGene
		if rng.Intn(3) == 0 {
			cluster = hw.BackEnd
		}
		db := dbs[cluster]

		// Random occupancy by random owners, random dead marks.
		owners := []string{"q1", "q2", "q3"}
		for i, n := 0, rng.Intn(db.Size()); i < n; i++ {
			if _, err := db.SelectFor(owners[rng.Intn(len(owners))], nil); err != nil {
				break
			}
		}
		for i, n := 0, rng.Intn(db.Size()/2+1); i < n; i++ {
			db.MarkDead(rng.Intn(db.Size()))
		}

		// Random candidate set: nil (naive) or a noisy id list.
		var candidates []int
		if rng.Intn(2) == 0 {
			for i, n := 0, 1+rng.Intn(2*db.Size()); i < n; i++ {
				candidates = append(candidates, rng.Intn(db.Size()+4)-2)
			}
		}
		owner := owners[rng.Intn(len(owners))]
		batch := 1 + rng.Intn(4)

		order, ok := p.PlanPlacement(owner, cluster, candidates, batch)
		order2, ok2 := p.PlanPlacement(owner, cluster, candidates, batch)
		if ok != ok2 || len(order) != len(order2) {
			t.Fatalf("iter %d: planning not deterministic: %v/%v vs %v/%v", iter, order, ok, order2, ok2)
		}
		for i := range order {
			if order[i] != order2[i] {
				t.Fatalf("iter %d: planning not deterministic: %v vs %v", iter, order, order2)
			}
		}
		if !ok {
			continue
		}
		if len(order) == 0 {
			t.Fatalf("iter %d: ok with empty order", iter)
		}
		allowed := map[int]bool{}
		if candidates != nil {
			for _, c := range candidates {
				allowed[c] = true
			}
		}
		seen := map[int]bool{}
		for _, n := range order {
			if n < 0 || n >= db.Size() {
				t.Fatalf("iter %d: out-of-range node %d in %v", iter, n, order)
			}
			if seen[n] {
				t.Fatalf("iter %d: duplicate node %d in %v", iter, n, order)
			}
			seen[n] = true
			if candidates != nil && !allowed[n] {
				t.Fatalf("iter %d: node %d not in candidate set", iter, n)
			}
			if db.NodeStates()[n].Dead {
				t.Fatalf("iter %d: dead node %d proposed", iter, n)
			}
			if db.Exclusive() && db.NodeStates()[n].RPs > 0 {
				t.Fatalf("iter %d: occupied exclusive node %d proposed", iter, n)
			}
		}
	}
}

// busyOn walks routes in the view's scratch slice; it must count exactly the
// foreign-leased co-processors torus.Intermediates names, and stop
// allocating once the scratch has grown.
func TestBusyOnMatchesIntermediates(t *testing.T) {
	env, dbs, p := harness(t, Config{})
	bg := dbs[hw.BlueGene]
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		bg.SelectFor("other", mustSeq(t, rng.Intn(bg.Size())))
	}
	v := p.snapshot("q1", bg)
	for i := 0; i < 2000; i++ {
		own, n := rng.Intn(bg.Size()), rng.Intn(bg.Size())
		mids, err := env.Torus.Intermediates(own, n)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, mid := range mids {
			if v.foreignNode[mid] {
				want++
			}
		}
		if got := v.busyOn(own, n); got != want {
			t.Fatalf("busyOn(%d,%d) = %d, Intermediates count %d", own, n, got, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { v.busyOn(0, bg.Size()-1) }); a != 0 {
		t.Errorf("busyOn allocates %v times per route on a warm view, want 0", a)
	}
}

func mustSeq(t *testing.T, id int) *cndb.Sequence {
	t.Helper()
	seq, err := cndb.NewSequence(id)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// Once the decision log is full, a plan records into the slot it overwrites
// and keeps that slot's Chosen array: a warm AppendPlacement allocates
// nothing.
func TestWarmPlanAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, dbs, p := harness(t, Config{})
	lease(t, dbs[hw.BlueGene], "q1", 0)
	var order []int
	for i := 0; i < maxDecisions; i++ {
		order, _ = p.AppendPlacement(order[:0], "q2", hw.BlueGene, nil, 2)
	}
	if a := testing.AllocsPerRun(100, func() {
		order, _ = p.AppendPlacement(order[:0], "q2", hw.BlueGene, nil, 2)
	}); a != 0 {
		t.Errorf("warm AppendPlacement with a full decision log: %v allocs, want 0", a)
	}
}

// A sys_placements reader runs beside planning: the decisions it got keep
// their Chosen nodes however many plans reuse the slots they came from.
func TestDecisionsOutliveTheirSlots(t *testing.T) {
	_, _, p := harness(t, Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var order []int
		for i := 0; i < 3*maxDecisions; i++ {
			// Each plan chooses among nodes of its own, so a reused slot
			// reads differently.
			n := 3 * (i % 10)
			order, _ = p.AppendPlacement(order[:0], "q1", hw.BlueGene, []int{n, n + 1, n + 2}, 1+i%3)
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		ds := p.Decisions()
		chosen := make([]string, len(ds))
		for i, d := range ds {
			chosen[i] = d.ChosenString()
		}
		runtime.Gosched()
		for i, d := range ds {
			if len(d.Chosen) != d.Batch || d.ChosenString() != chosen[i] {
				t.Fatalf("decision %d of batch %d read %q, now %q", d.ID, d.Batch, chosen[i], d.ChosenString())
			}
		}
	}
}
