package metrics

import (
	"encoding/json"
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
