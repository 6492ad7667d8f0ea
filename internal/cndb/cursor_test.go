package cndb

import (
	"errors"
	"sync"
	"testing"

	"scsq/internal/hw"
)

// newBGDB builds an exclusive (BlueGene) database over the default LOFAR
// environment: 32 nodes, psets of 8.
func newBGDB(t *testing.T) *DB {
	t.Helper()
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatalf("NewLOFAR: %v", err)
	}
	db, err := New(env, hw.BlueGene)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return db
}

// A failed probe — a full cycle without an available node — must leave the
// sequence cursor exactly where it started, so the retried admission probes
// the same candidates in the same order instead of drifting.
func TestFailedProbeLeavesCursorStable(t *testing.T) {
	db := newBGDB(t)
	seq, err := NewSequence(0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 3} {
		db.MarkDead(id)
	}
	hog, err := NewSequence(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectFor("hog", hog); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SelectFor("q1", seq); !errors.Is(err, ErrNoAvailableNode) {
		t.Fatalf("SelectFor over dead and held nodes: err=%v, want ErrNoAvailableNode", err)
	}
	if got := seq.Pos(); got != 0 {
		t.Fatalf("cursor after failed probe: %d, want 0", got)
	}
	// Capacity returns: the next probe must find it at the stable start
	// offset.
	db.ReleaseFor("hog", 2)
	id, err := db.SelectFor("q1", seq)
	if err != nil {
		t.Fatalf("SelectFor with node 2 alive: %v", err)
	}
	if id != 2 {
		t.Fatalf("SelectFor with node 2 alive: node %d, want 2", id)
	}
	if got := seq.Pos(); got != 3 {
		t.Fatalf("cursor after grant of position 2: %d, want 3", got)
	}
}

// An out-of-range id aborts the selection mid-cycle; the abort must not
// displace the cursor (it used to consume every probed position, so the
// next selection against the same sequence started somewhere else).
func TestOutOfRangeAbortLeavesCursorStable(t *testing.T) {
	db := newBGDB(t)
	seq, err := NewSequence(1, 99, 2)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := db.SelectFor("q1", seq); err != nil || id != 1 {
		t.Fatalf("first selection: id=%d err=%v, want 1", id, err)
	}
	if got := seq.Pos(); got != 1 {
		t.Fatalf("cursor after first grant: %d, want 1", got)
	}
	db.MarkDead(99 % db.Size()) // irrelevant; keeps the dead map exercised
	if _, err := db.SelectFor("q1", seq); err == nil || errors.Is(err, ErrNoAvailableNode) {
		t.Fatalf("selection over out-of-range id: err=%v, want range error", err)
	}
	if got := seq.Pos(); got != 1 {
		t.Fatalf("cursor after aborted probe: %d, want 1 (stable)", got)
	}
}

// The success path is unchanged: consecutive grants walk the sequence
// round-robin and the cursor lands just past each granted position — the
// spv() spreading behavior every existing schedule depends on.
func TestGrantAdvancesCursorAsBefore(t *testing.T) {
	db := newBGDB(t)
	seq, err := NewSequence(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := []int{3, 1, 2, 3, 1, 2}
	wantPos := []int{1, 2, 0, 1, 2, 0}
	for i, want := range wantNodes {
		id, err := db.SelectFor("q1", seq)
		if err != nil {
			t.Fatalf("grant %d: %v", i, err)
		}
		if id != want {
			t.Fatalf("grant %d: node %d, want %d", i, id, want)
		}
		if got := seq.Pos(); got != wantPos[i] {
			t.Fatalf("grant %d: cursor %d, want %d", i, got, wantPos[i])
		}
		db.ReleaseFor("q1", id)
	}
}

// Concurrent admissions sharing one rotating sequence must never see a
// spurious ErrNoAvailableNode while capacity is guaranteed: with G
// concurrent holders on a cluster of size > G, every probe has a free node
// somewhere in its cycle. Run with -race: the probe walks the sequence under
// seq.mu with the cursor committed only on grant.
func TestConcurrentSelectReleaseNoSpuriousFailure(t *testing.T) {
	db := newBGDB(t)
	seq := URR(db) // rotating over all 32 nodes
	const (
		workers = 4
		rounds  = 500
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(owner string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id, err := db.SelectFor(owner, seq)
				if err != nil {
					errs <- err
					return
				}
				db.ReleaseFor(owner, id)
			}
		}(string(rune('a' + w)))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("spurious selection failure under guaranteed capacity: %v", err)
	}
	if n := len(db.Leases()); n != 0 {
		t.Fatalf("leases leaked after hammer: %d", n)
	}
}

// Pos returns the cursor position: the index of the candidate the next
// selection probes first. The cursor tests read it to prove probing is side-effect-free.
func (s *Sequence) Pos() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}
