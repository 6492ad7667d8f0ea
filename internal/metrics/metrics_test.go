package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"scsq/internal/vtime"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a")
	c.Inc()
	c.Add(4)
	c.Add(-1) // negative adds are ignored to keep counters monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("a") != c {
		t.Fatal("second lookup returned a different handle")
	}

	g := reg.Gauge("g")
	g.Set(7)
	g.SetMax(3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after SetMax(3) = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge after SetMax(11) = %d, want 11", got)
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("x")
	h := reg.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil handles")
	}
	// All recording calls must be safe no-ops.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h")
	h.Observe(0)  // bucket 0 (non-positive)
	h.Observe(-5) // bucket 0
	h.Observe(1)  // bucket 1: [1, 2)
	h.Observe(3)  // bucket 2: [2, 4)
	h.Observe(vtime.Duration(1 << 20))
	s := reg.Snapshot().Histograms["h"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.MinNs != -5 || s.MaxNs != 1<<20 {
		t.Fatalf("min/max = %d/%d, want -5/%d", s.MinNs, s.MaxNs, 1<<20)
	}
	if s.SumNs != -5+0+1+3+1<<20 {
		t.Fatalf("sum = %d", s.SumNs)
	}
	want := map[int64]int64{0: 2, 2: 1, 4: 1, 1 << 21: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want uppers %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.UpperNs] != b.Count {
			t.Fatalf("bucket upper=%d count=%d, want %d (all: %+v)", b.UpperNs, b.Count, want[b.UpperNs], s.Buckets)
		}
	}
}

// TestHistogramCountIsTheBucketSum: a histogram's count is no field of its
// own but the sum of its buckets, read when the histogram is read — so every
// snapshot taken while writers observe counts exactly the buckets it shows,
// and a snapshot that counts an observation shows the bounds it moved.
// Writers observe negative and positive durations, within [-lim, lim].
func TestHistogramCountIsTheBucketSum(t *testing.T) {
	const writers, per, lim = 4, 2000, 1000
	var h Histogram
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				d := vtime.Duration((w*per+i)%(2*lim+1) - lim)
				h.Observe(d)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		s := h.snapshot()
		var sum int64
		for _, b := range s.Buckets {
			sum += b.Count
		}
		if s.Count != sum {
			t.Fatalf("count %d, buckets sum to %d", s.Count, sum)
		}
		if s.Count > 0 && (s.MinNs < -lim || s.MaxNs > lim || s.MinNs > s.MaxNs) {
			t.Fatalf("count %d with min/max %d/%d, want within [%d, %d]", s.Count, s.MinNs, s.MaxNs, -lim, lim)
		}
	}
	if s := h.snapshot(); s.Count != writers*per || s.MinNs != -lim || s.MaxNs != lim {
		t.Fatalf("count %d min/max %d/%d, want %d %d/%d", s.Count, s.MinNs, s.MaxNs, writers*per, -lim, lim)
	}
}

// TestHistogramBoundsAreTheObserved: the zero histogram is empty; min and
// max are the least and greatest duration observed also when every one is
// negative, and a merge into an empty histogram — or of an empty one — keeps
// them.
func TestHistogramBoundsAreTheObserved(t *testing.T) {
	var empty, neg, into Histogram
	if s := empty.snapshot(); s.Count != 0 || s.MinNs != 0 || s.MaxNs != 0 || s.Buckets != nil {
		t.Fatalf("zero histogram reads %+v, want empty", s)
	}
	neg.Observe(-7)
	neg.Observe(-3)
	neg.Observe(-5)
	if s := neg.snapshot(); s.Count != 3 || s.MinNs != -7 || s.MaxNs != -3 || s.SumNs != -15 {
		t.Fatalf("negative durations read %+v, want count 3, min -7, max -3, sum -15", s)
	}
	into.merge(&neg)
	into.merge(&empty)
	if s := into.snapshot(); s.Count != 3 || s.MinNs != -7 || s.MaxNs != -3 {
		t.Fatalf("merged into an empty histogram: %+v, want count 3, min -7, max -3", s)
	}
	var pos Histogram
	pos.Observe(4)
	into.merge(&pos)
	if s := into.snapshot(); s.Count != 4 || s.MinNs != -7 || s.MaxNs != 4 {
		t.Fatalf("merged with a positive one: %+v, want count 4, min -7, max 4", s)
	}
	var extremes Histogram
	extremes.Observe(math.MinInt64)
	extremes.Observe(math.MaxInt64)
	if s := extremes.snapshot(); s.MinNs != math.MinInt64 || s.MaxNs != math.MaxInt64 {
		t.Fatalf("extremes read min/max %d/%d", s.MinNs, s.MaxNs)
	}
}

// TestConcurrentWriters hammers one registry from many goroutines — the
// satellite's -race coverage — and checks that the order-independent
// aggregates come out exact.
func TestConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("shared")
			g := reg.Gauge("depth")
			h := reg.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(vtime.Duration(i + 1))
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counters["shared"]; got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Gauges["depth"]; got != workers*perWorker-1 {
		t.Fatalf("gauge max = %d, want %d", got, workers*perWorker-1)
	}
	h := snap.Histograms["lat"]
	if h.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	if h.MinNs != 1 || h.MaxNs != perWorker {
		t.Fatalf("histogram min/max = %d/%d, want 1/%d", h.MinNs, h.MaxNs, perWorker)
	}
}

// TestSnapshotWhileWriting takes snapshots concurrently with writers; the
// race detector validates safety, and every observed counter value must be
// monotone in time.
func TestSnapshotWhileWriting(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := reg.Counter("c")
		h := reg.Histogram("h")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			h.Observe(vtime.Duration(i))
		}
	}()
	var last int64
	for i := 0; i < 100; i++ {
		snap := reg.Snapshot()
		if v := snap.Counters["c"]; v < last {
			t.Fatalf("counter went backwards: %d after %d", v, last)
		} else {
			last = v
		}
	}
	close(stop)
	wg.Wait()
}

func TestDeterministicStripsRT(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("send.frames.x").Inc()
	reg.Counter(RTPrefix + "racy").Inc()
	reg.Gauge(RTPrefix + "inbox_depth.c1").Set(3)
	reg.Histogram("lat").Observe(5)
	det := reg.Snapshot().Deterministic()
	if _, ok := det.Counters["send.frames.x"]; !ok {
		t.Fatal("deterministic view lost a regular counter")
	}
	if _, ok := det.Counters[RTPrefix+"racy"]; ok {
		t.Fatal("rt. counter survived Deterministic")
	}
	if len(det.Gauges) != 0 {
		t.Fatalf("rt. gauge survived: %v", det.Gauges)
	}
	if _, ok := det.Histograms["lat"]; !ok {
		t.Fatal("deterministic view lost a histogram")
	}
}

func TestSumCountersAndNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("link.bytes.mpi:bg:1->bg:0").Add(100)
	reg.Counter("link.bytes.mpi:bg:2->bg:0").Add(23)
	reg.Counter("link.bytes.tcp:fe:0->be:1").Add(999)
	reg.Counter("link.frames.mpi:bg:1->bg:0").Add(4)
	snap := reg.Snapshot()
	if got := snap.SumCounters("link.bytes.mpi:"); got != 123 {
		t.Fatalf("SumCounters = %d, want 123", got)
	}
	if got := snap.SumCounters("link.bytes."); got != 1122 {
		t.Fatalf("SumCounters all = %d, want 1122", got)
	}
	names := snap.CounterNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("CounterNames not sorted: %v", names)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(42)
	reg.Gauge("g").Set(-3)
	reg.Histogram("h").Observe(1000)
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 42 || back.Gauges["g"] != -3 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestTurnFamilyReadsAsAtomic: a Turn family's cells are plain memory, and
// they read exactly as an atomic family's fed the same records — live,
// folded into the retired aggregate and in a block handed out again, which
// keeps its family's kind of cell.
func TestTurnFamilyReadsAsAtomic(t *testing.T) {
	plain := &Family{Counters: []string{"p.n."}, Gauges: []string{"p.hw."}, Hists: []string{"p.vt."}, Turn: true}
	atom := &Family{Counters: []string{"a.n."}, Gauges: []string{"a.hw."}, Hists: []string{"a.vt."}}
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(66))
	same := func(s Snapshot, id string) {
		t.Helper()
		if p, a := s.Counters["p.n."+id], s.Counters["a.n."+id]; p != a {
			t.Errorf("%s: counter %d, atomic %d", id, p, a)
		}
		if p, a := s.Gauges["p.hw."+id], s.Gauges["a.hw."+id]; p != a {
			t.Errorf("%s: gauge %d, atomic %d", id, p, a)
		}
		if p, a := s.Histograms["p.vt."+id], s.Histograms["a.vt."+id]; !reflect.DeepEqual(p, a) {
			t.Errorf("%s: histogram %+v, atomic %+v", id, p, a)
		}
	}
	for round := range 3 {
		sc := reg.OpenScope(fmt.Sprintf("q%d", round+1))
		id := fmt.Sprintf("q%d/rp", round+1)
		bp, ba := sc.Block(plain, id), sc.Block(atom, id)
		for _, b := range []*Block{bp, ba} {
			if b.c[0].plain != b.fam.Turn || b.h[0].plain != b.fam.Turn {
				t.Fatalf("round %d: a block of %v has plain cells %v, %v", round, b.fam.Hists, b.c[0].plain, b.h[0].plain)
			}
		}
		for range 200 {
			n, d := int64(rng.Intn(100)), vtime.Duration(rng.Intn(1<<20)-1000)
			for _, b := range []*Block{bp, ba} {
				b.Counter(0).Add(n)
				b.Counter(0).Inc()
				b.Gauge(0).SetMax(n)
				b.Histogram(0).Observe(d)
			}
		}
		same(reg.Snapshot(), id)
		sc.Fold()
		same(reg.Snapshot(), retiredSuffix)
	}
}
