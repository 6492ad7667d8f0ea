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
	if got := MaxTime(3, 9); got != 9 {
		t.Errorf("MaxTime = %v, want 9", got)
	}
	if got := MaxTime(9, 3); got != 9 {
		t.Errorf("MaxTime = %v, want 9", got)
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

// TestResourceConcurrentUse checks race-freedom and overlap-freedom under
// concurrent access (run with -race).
func TestResourceConcurrentUse(t *testing.T) {
	r := NewResource("shared")
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
				s, e := r.UseAs("q1", ready, Duration(rng.Intn(20)+1))
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

	if got := r.BusyTimeBy("q1"); got != 20 {
		t.Errorf("BusyTimeBy(q1) = %v, want 20", got)
	}
	if got := r.BusyTimeBy("q2"); got != 12 {
		t.Errorf("BusyTimeBy(q2) = %v, want 12", got)
	}
	if got := r.BusyTimeBy("q3"); got != 0 {
		t.Errorf("BusyTimeBy(q3) = %v, want 0", got)
	}
	// Anonymous Use is accounted under the reserved AnonymousOwner key, so
	// the per-owner totals sum to BusyTime.
	if got := r.BusyTimeBy(AnonymousOwner); got != 3 {
		t.Errorf("BusyTimeBy(AnonymousOwner) = %v, want 3", got)
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
