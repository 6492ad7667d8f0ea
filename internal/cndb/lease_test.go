package cndb

import (
	"errors"
	"reflect"
	"testing"

	"scsq/internal/hw"
)

func TestLeaseTableTracksOwners(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	seq, err := NewSequence(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for want := 3; want <= 4; want++ {
		id, err := db.SelectFor("q1", seq)
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("SelectFor(q1) = %d, want %d", id, want)
		}
	}
	if id, err := db.SelectFor("q2", seq); err != nil || id != 5 {
		t.Fatalf("SelectFor(q2) = %d, %v, want 5, nil", id, err)
	}

	if got := db.LeaseCount("q1"); got != 2 {
		t.Errorf("LeaseCount(q1) = %d, want 2", got)
	}
	if got := db.LeasedNodes("q1"); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("LeasedNodes(q1) = %v, want [3 4]", got)
	}
	want := []Lease{
		{Owner: "q1", Node: 3, Count: 1},
		{Owner: "q1", Node: 4, Count: 1},
		{Owner: "q2", Node: 5, Count: 1},
	}
	if got := db.Leases(); !reflect.DeepEqual(got, want) {
		t.Errorf("Leases = %v, want %v", got, want)
	}

	// The sequence is exhausted while q1/q2 hold it: exclusive nodes are
	// unavailable, so a third tenant is rejected with the typed error.
	if _, err := db.SelectFor("q3", seq); !errors.Is(err, ErrNoAvailableNode) {
		t.Fatalf("SelectFor(q3) err = %v, want ErrNoAvailableNode", err)
	}

	db.ReleaseFor("q1", 3)
	db.ReleaseFor("q1", 4)
	if got := db.LeaseCount("q1"); got != 0 {
		t.Errorf("LeaseCount(q1) after release = %d, want 0", got)
	}
	if got := db.LeasedNodes("q1"); len(got) != 0 {
		t.Errorf("LeasedNodes(q1) after release = %v, want empty", got)
	}
	// Released exclusive nodes are selectable again.
	if id, err := db.SelectFor("q3", seq); err != nil || id != 3 {
		t.Fatalf("SelectFor(q3) after release = %d, %v, want 3, nil", id, err)
	}
}

func TestLeaseSharedClusterCounts(t *testing.T) {
	// Linux cluster nodes host any number of RPs: one owner can lease the
	// same node repeatedly and the count reflects it.
	db := newDB(t, hw.FrontEnd)
	seq, err := NewSequence(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if id, err := db.SelectFor("q1", seq); err != nil || id != 0 {
			t.Fatalf("SelectFor = %d, %v, want 0, nil", id, err)
		}
	}
	if got := db.Leases(); !reflect.DeepEqual(got, []Lease{{Owner: "q1", Node: 0, Count: 3}}) {
		t.Errorf("Leases = %v, want one q1/0 lease with count 3", got)
	}
	db.ReleaseFor("q1", 0)
	if got := db.LeaseCount("q1"); got != 2 {
		t.Errorf("LeaseCount after one release = %d, want 2", got)
	}
}

func TestReleaseForUnleasedIsTolerant(t *testing.T) {
	db := newDB(t, hw.BlueGene)
	if _, err := db.SelectFor("", nil); err != nil { // anonymous allocation of node 0
		t.Fatal(err)
	}
	// Releasing under the wrong owner leaves the lease table alone but still
	// returns the aggregate allocation (Release's historic tolerance).
	db.ReleaseFor("q9", 0)
	if got := db.AllocatedCount(0); got != 0 {
		t.Errorf("AllocatedCount(0) = %d, want 0", got)
	}
	if got := db.LeaseCount(""); got != 1 {
		t.Errorf("anonymous LeaseCount = %d, want 1 (untouched by q9 release)", got)
	}
}
