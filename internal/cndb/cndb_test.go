package cndb

import (
	"errors"
	"testing"

	"scsq/internal/hw"
)

func testEnv(t *testing.T) *hw.Env {
	t.Helper()
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	return env
}

func newDB(t *testing.T, c hw.ClusterName) *DB {
	t.Helper()
	db, err := New(testEnv(t), c)
	if err != nil {
		t.Fatalf("cndb: %v", err)
	}
	return db
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testEnv(t), "nope"); err == nil {
		t.Error("unknown cluster should fail")
	}
	db := newDB(t, hw.BlueGene)
	if !db.Exclusive() {
		t.Error("BlueGene nodes must be exclusive (CNK runs one process per node)")
	}
	if db.Cluster() != hw.BlueGene || db.Size() != 32 {
		t.Errorf("db = %v/%d, want bg/32", db.Cluster(), db.Size())
	}
	if newDB(t, hw.BackEnd).Exclusive() {
		t.Error("Linux nodes are not exclusive")
	}
}

func TestNaiveSelectionExclusive(t *testing.T) {
	// The paper's naive algorithm returns the next available node.
	db := newDB(t, hw.BlueGene)
	for want := 0; want < 4; want++ {
		got, err := db.SelectFor("q1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("naive selection %d = %d, want %d", want, got, want)
		}
	}
	db.ReleaseFor("q1", 1)
	got, err := db.SelectFor("q1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("after release, naive selection = %d, want 1", got)
	}
}

func TestNaiveSelectionExhaustion(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	for i := 0; i < db.Size(); i++ {
		if _, err := db.SelectFor("q1", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.SelectFor("q1", nil); !errors.Is(err, ErrNoAvailableNode) {
		t.Errorf("full cluster: err = %v, want ErrNoAvailableNode", err)
	}
}

func TestNaiveSelectionShared(t *testing.T) {
	db := newDB(t, hw.BackEnd) // 4 nodes, round-robin
	var got []int
	for i := 0; i < 6; i++ {
		id, err := db.SelectFor("q1", nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	want := []int{0, 1, 2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin = %v, want %v", got, want)
		}
	}
	if db.AllocatedCount(0) != 2 {
		t.Errorf("node 0 count = %d, want 2 (shared nodes host several RPs)", db.AllocatedCount(0))
	}
}

func TestExplicitSequence(t *testing.T) {
	// sp(..., 'bg', 0): a single-node sequence pins the selection.
	db := newDB(t, hw.BlueGene)
	seq, err := NewSequence(7)
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.SelectFor("q1", seq)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Errorf("selection = %d, want 7", id)
	}
	// The node is now busy; the sequence has no other candidate: "In case
	// the stream contains no available node, the query will fail."
	if _, err := db.SelectFor("q1", seq); !errors.Is(err, ErrNoAvailableNode) {
		t.Errorf("err = %v, want ErrNoAvailableNode", err)
	}
}

func TestConstantSequenceOnSharedCluster(t *testing.T) {
	// Query 1 assigns every back-end SP to node 1 via the constant
	// allocation sequence.
	db := newDB(t, hw.BackEnd)
	seq, err := NewSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id, err := db.SelectFor("q1", seq)
		if err != nil {
			t.Fatal(err)
		}
		if id != 1 {
			t.Fatalf("selection %d = %d, want 1", i, id)
		}
	}
}

func TestSequenceSkipsBusyNodes(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	seq, err := NewSequence(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.SelectFor("q1", seq)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.SelectFor("q1", seq)
	if err != nil {
		t.Fatal(err)
	}
	third, err := db.SelectFor("q1", seq)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 || second != 3 || third != 4 {
		t.Fatalf("selections = %d,%d,%d; want 2,3,4", first, second, third)
	}
	if _, err := db.SelectFor("q1", seq); !errors.Is(err, ErrNoAvailableNode) {
		t.Errorf("exhausted sequence: err = %v, want ErrNoAvailableNode", err)
	}
}

func TestSequenceRejectsOutOfRange(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	seq, err := NewSequence(99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectFor("q1", seq); err == nil {
		t.Error("out-of-range node should fail")
	}
}

func TestNewSequenceEmpty(t *testing.T) {
	if _, err := NewSequence(); err == nil {
		t.Error("empty sequence should fail")
	}
}

func TestURR(t *testing.T) {
	db := newDB(t, hw.BackEnd)
	seq := URR(db)
	var got []int
	for i := 0; i < 6; i++ {
		id, err := db.SelectFor("q1", seq)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	// "each identifier represents a new available node in the cluster in a
	// round-robin fashion"
	want := []int{0, 1, 2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("urr selections = %v, want %v", got, want)
		}
	}
}

func TestInPset(t *testing.T) {
	env := testEnv(t)
	db, err := New(env, hw.BlueGene)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := InPset(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All selections land in pset 1 (nodes 8..15), distinct because the
	// cluster is exclusive.
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		id, err := db.SelectFor("q1", seq)
		if err != nil {
			t.Fatal(err)
		}
		if id < 8 || id > 15 {
			t.Fatalf("selection %d outside pset 1", id)
		}
		if seen[id] {
			t.Fatalf("node %d selected twice on an exclusive cluster", id)
		}
		seen[id] = true
	}
	// The pset is full now.
	if _, err := db.SelectFor("q1", seq); !errors.Is(err, ErrNoAvailableNode) {
		t.Errorf("full pset: err = %v, want ErrNoAvailableNode", err)
	}
	if _, err := InPset(env, 9); err == nil {
		t.Error("unknown pset should fail")
	}
}

func TestPsetRR(t *testing.T) {
	env := testEnv(t)
	db, err := New(env, hw.BlueGene)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := PsetRR(env)
	if err != nil {
		t.Fatal(err)
	}
	// "each succeeding node number belongs to a new pset in a round-robin
	// fashion": the first four selections hit psets 0,1,2,3; the fifth
	// reuses pset 0 (the n=5 dip of Figure 15).
	wantPsets := []int{0, 1, 2, 3, 0}
	for i, want := range wantPsets {
		id, err := db.SelectFor("q1", seq)
		if err != nil {
			t.Fatal(err)
		}
		p, err := env.PsetOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if p != want {
			t.Fatalf("selection %d: node %d in pset %d, want pset %d", i, id, p, want)
		}
	}
}

func TestSequenceStateSharedAcrossSelections(t *testing.T) {
	// One sequence instance drives a whole spv() batch; its cursor must
	// persist across Select calls (that is what spreads the batch).
	db := newDB(t, hw.BackEnd)
	seq := URR(db)
	a, err := db.SelectFor("q1", seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.SelectFor("q1", seq)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Errorf("consecutive urr selections both = %d; cursor not advancing", a)
	}
	if got := seq.Period(); got != 4 {
		t.Errorf("period = %d, want 4", got)
	}
	if ids := seq.IDs(); len(ids) != 4 {
		t.Errorf("IDs = %v, want 4 entries", ids)
	}
}

func TestReset(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	if _, err := db.SelectFor("q1", nil); err != nil {
		t.Fatal(err)
	}
	db.Reset()
	if got := db.AllocatedCount(0); got != 0 {
		t.Errorf("after reset, node 0 count = %d, want 0", got)
	}
	id, err := db.SelectFor("q1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Errorf("after reset, naive selection = %d, want 0", id)
	}
}

func TestReleaseUnallocatedIsNoop(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	db.ReleaseFor("q1", 3) // must not panic or underflow
	if got := db.AllocatedCount(3); got != 0 {
		t.Errorf("count = %d, want 0", got)
	}
}
