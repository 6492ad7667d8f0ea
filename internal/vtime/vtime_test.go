package vtime

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var zero Time
	if got := zero.Add(5 * Microsecond); got != Time(5000) {
		t.Errorf("Add = %v, want 5000", got)
	}
	if got := Time(7000).Sub(Time(2000)); got != Duration(5000) {
		t.Errorf("Sub = %v, want 5000", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := Millisecond.Std(); got != time.Millisecond {
		t.Errorf("Std = %v, want 1ms", got)
	}
}

func TestResourceSequentialUse(t *testing.T) {
	r := NewResource("cpu")
	s1, e1 := r.UseAs("q1", 0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first use = [%v,%v), want [0,100)", s1, e1)
	}
	// Ready before the resource frees: queued behind.
	s2, e2 := r.UseAs("q1", 50, 100)
	if s2 != 100 || e2 != 200 {
		t.Fatalf("second use = [%v,%v), want [100,200)", s2, e2)
	}
	// Ready after: starts at ready.
	s3, e3 := r.UseAs("q1", 500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("third use = [%v,%v), want [500,510)", s3, e3)
	}
	if got := r.BusyTime(); got != 210 {
		t.Errorf("busy = %v, want 210", got)
	}
	if got := r.FreeAt(); got != 510 {
		t.Errorf("freeAt = %v, want 510", got)
	}
}

func TestResourceBackfill(t *testing.T) {
	r := NewResource("coproc")
	// Reserve [100,200) and [300,400).
	r.UseAs("q1", 100, 100)
	r.UseAs("q1", 300, 100)
	// A late call with an early ready time backfills the gap at [0,100).
	s, e := r.UseAs("q1", 0, 80)
	if s != 0 || e != 80 {
		t.Fatalf("backfill = [%v,%v), want [0,80)", s, e)
	}
	// A request that does not fit any gap goes to the end.
	s, e = r.UseAs("q1", 0, 150)
	if s != 400 || e != 550 {
		t.Fatalf("oversized = [%v,%v), want [400,550)", s, e)
	}
	// The [200,300) gap is still available for a fitting request.
	s, e = r.UseAs("q1", 150, 100)
	if s != 200 || e != 300 {
		t.Fatalf("gap fit = [%v,%v), want [200,300)", s, e)
	}
}

func TestResourceZeroAndNegativeService(t *testing.T) {
	r := NewResource("x")
	s, e := r.UseAs("q1", 42, 0)
	if s != 42 || e != 42 {
		t.Errorf("zero service = [%v,%v), want [42,42)", s, e)
	}
	s, e = r.UseAs("q1", 42, -5)
	if s != 42 || e != 42 {
		t.Errorf("negative service = [%v,%v), want [42,42)", s, e)
	}
	if r.BusyTime() != 0 {
		t.Errorf("busy = %v, want 0", r.BusyTime())
	}
	// Negative ready clamps to zero.
	s, _ = r.UseAs("q1", -10, 5)
	if s < 0 {
		t.Errorf("start %v must not be negative", s)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.UseAs("q1", 0, 100)
	r.Reset()
	if r.BusyTime() != 0 || r.FreeAt() != 0 {
		t.Errorf("after reset: busy=%v freeAt=%v, want 0,0", r.BusyTime(), r.FreeAt())
	}
	s, e := r.UseAs("q1", 0, 10)
	if s != 0 || e != 10 {
		t.Errorf("post-reset use = [%v,%v), want [0,10)", s, e)
	}
}

// TestResourceGrantsNeverOverlap is a property test: however requests
// arrive, granted intervals never overlap and each starts no earlier than
// its ready time.
func TestResourceGrantsNeverOverlap(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("q")
		type grant struct{ s, e Time }
		var grants []grant
		count := int(n%40) + 2
		for i := 0; i < count; i++ {
			ready := Time(rng.Intn(1000))
			svc := Duration(rng.Intn(50) + 1)
			s, e := r.UseAs("q1", ready, svc)
			if s < ready || e != s.Add(svc) {
				return false
			}
			grants = append(grants, grant{s, e})
		}
		sort.Slice(grants, func(i, j int) bool { return grants[i].s < grants[j].s })
		for i := 1; i < len(grants); i++ {
			if grants[i].s < grants[i-1].e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceConcurrentUse checks race-freedom and overlap-freedom of
// grants from concurrent goroutines, each in a turn (run with -race).
func TestResourceConcurrentUse(t *testing.T) {
	r := NewResource("shared")
	var k Kernel
	const (
		workers = 8
		each    = 200
	)
	results := make([][]Time, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				ready := Time(rng.Intn(10000))
				k.Lock()
				s, e := r.UseAs("q1", ready, Duration(rng.Intn(20)+1))
				k.Unlock()
				results[w] = append(results[w], s, e)
			}
		}(w)
	}
	wg.Wait()
	type iv struct{ s, e Time }
	var all []iv
	for _, rs := range results {
		for i := 0; i < len(rs); i += 2 {
			all = append(all, iv{rs[i], rs[i+1]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	for i := 1; i < len(all); i++ {
		if all[i].s < all[i-1].e {
			t.Fatalf("overlapping grants: [%v,%v) and [%v,%v)", all[i-1].s, all[i-1].e, all[i].s, all[i].e)
		}
	}
}

func TestUseAsOwnerAccounting(t *testing.T) {
	r := NewResource("nic")
	r.UseAs("q1", 0, 20)
	r.UseAs("q2", 0, 5)
	r.UseAs("q2", 0, 7)
	r.UseAs(AnonymousOwner, 0, 3) // anonymous: aggregate only

	if got := r.OwnerBusy()["q1"]; got != 20 {
		t.Errorf("OwnerBusy[q1] = %v, want 20", got)
	}
	if got := r.OwnerBusy()["q2"]; got != 12 {
		t.Errorf("OwnerBusy[q2] = %v, want 12", got)
	}
	if got := r.OwnerBusy()["q3"]; got != 0 {
		t.Errorf("OwnerBusy[q3] = %v, want 0", got)
	}
	// Anonymous Use is accounted under the reserved AnonymousOwner key, so
	// the per-owner totals sum to BusyTime.
	if got := r.OwnerBusy()[AnonymousOwner]; got != 3 {
		t.Errorf("OwnerBusy[AnonymousOwner] = %v, want 3", got)
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

// TestOwnerAccountingSeesWhatIsOwed: a grant adds its charge to what its
// owner is owed and folds that into the owner table only when another owner
// is granted or a reader looks. Owners interleave on one resource, some
// granting several times in a row, and after every second grant one reader
// — each in turn, so each meets charges no earlier reader folded — must see
// them: OwnerBusy the owner's total, FoldOwner the total it
// retires, Reset nothing owed surviving it. The owner totals sum to
// BusyTime at every look.
func TestOwnerAccountingSeesWhatIsOwed(t *testing.T) {
	r := NewResource("coproc")
	want := map[string]Duration{}
	steps := []struct {
		owner string
		svc   Duration
	}{
		{"q1", 10}, {"q1", 5}, {"q2", 7}, {AnonymousOwner, 3}, {"q1", 4}, {"q1", 0},
		{"q2", 6}, {"q2", 2}, {"q3", 9}, {"q3", 1}, {AnonymousOwner, 8}, {"q1", 11},
		{"q4", 5}, {"q4", 5}, {"q2", 1}, {"q1", 2},
	}
	sum := func(m map[string]Duration) (s Duration) {
		for _, d := range m {
			s += d
		}
		return s
	}
	for i, s := range steps {
		r.UseAs(s.owner, 0, s.svc)
		if s.svc > 0 {
			want[s.owner] += s.svc
		}
		if i%2 == 0 {
			continue
		}
		switch i / 2 % 4 {
		case 0:
			if got := r.OwnerBusy()[s.owner]; got != want[s.owner] {
				t.Errorf("step %d: OwnerBusy[%q] = %v, want %v", i, s.owner, got, want[s.owner])
			}
		case 1:
			if got := r.OwnerBusy(); !reflect.DeepEqual(got, want) {
				t.Errorf("step %d: OwnerBusy = %v, want %v", i, got, want)
			}
		case 2:
			r.FoldOwner(s.owner)
			want[RetiredOwner] += want[s.owner]
			delete(want, s.owner)
			if got := r.OwnerBusy(); !reflect.DeepEqual(got, want) {
				t.Errorf("step %d: OwnerBusy after FoldOwner(%q) = %v, want %v", i, s.owner, got, want)
			}
		case 3:
			if i == 7 {
				r.Reset()
				clear(want)
				if got := r.OwnerBusy(); got != nil || r.OwnerBusy()[s.owner] != 0 || r.BusyTime() != 0 {
					t.Errorf("step %d: after Reset OwnerBusy = %v, OwnerBusy[%q] = %v, BusyTime = %v; want nothing", i, got, s.owner, r.OwnerBusy()[s.owner], r.BusyTime())
				}
			}
		}
		if got := r.OwnerBusy(); sum(got) != r.BusyTime() {
			t.Errorf("step %d: owner totals %v sum to %v, BusyTime %v", i, got, sum(got), r.BusyTime())
		}
	}
	// Reset leaves nothing owed: the owner granting next, the one granting
	// last before it, accounts from zero.
	r.UseAs("q5", 0, 4)
	r.Reset()
	r.UseAs("q5", 0, 3)
	if got := r.OwnerBusy()["q5"]; got != 3 {
		t.Errorf("after Reset OwnerBusy[q5] = %v, want 3", got)
	}
}
