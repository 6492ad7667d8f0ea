// Package metrics is SCSQ's virtual-time telemetry subsystem. The paper's
// thesis is that the stream engine *is* the measurement instrument; this
// package turns the instrument on itself: a registry of counters, gauges
// and virtual-time histograms fed by instrumentation hooks in the carriers
// (frames/bytes/drops per link, delivery latency), the RP drivers (marshal
// and flush latency, inbox depth), the chaos injector (faults by kind), the
// coordinators (beats, node kills) and the supervisor (re-placements).
//
// Two rules keep telemetry compatible with the engine's measurement duty:
//
//  1. Metrics never perturb virtual time. Instrumentation records virtual
//     instants and durations the engine already computed; it never charges
//     a vtime.Resource. A run with telemetry on is bit-for-bit identical
//     to a run with it off.
//  2. Metrics are deterministic unless marked otherwise. Counter sums,
//     histogram bucket contents and gauge maxima are order-independent, so
//     concurrent goroutines racing to record produce the same snapshot;
//     two same-seed runs yield identical snapshots. The only exception is
//     wall-clock-dependent observations (e.g. instantaneous inbox queue
//     depth), which by convention carry the name prefix "rt." and are
//     excluded by Snapshot.Deterministic.
//
// All hot-path operations are single atomic instructions; registry lookups
// happen once per connection or process at wiring time, and the handles are
// cached. A nil *Registry (and the nil handles it returns) is valid and
// records nothing, so instrumentation points need no conditionals.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"scsq/internal/vtime"
)

// RTPrefix marks metric names whose values depend on wall-clock scheduling
// rather than the deterministic virtual schedule (e.g. instantaneous queue
// depths). Snapshot.Deterministic strips them.
const RTPrefix = "rt."

// Counter is a monotonically increasing count. The zero value is usable; a
// nil *Counter records nothing.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value or high-water-mark observation. The zero value is
// usable; a nil *Gauge records nothing.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger — an order-independent
// high-water mark, safe for concurrent writers.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of histogram buckets: bucket 0 holds
// non-positive durations, bucket i (1..64) holds durations d with
// 2^(i-1) <= d < 2^i nanoseconds.
const histBuckets = 65

// Histogram aggregates virtual durations into power-of-two buckets. All
// operations are atomic; bucket contents, count, sum, min and max are
// order-independent, so concurrent recording is deterministic. The zero
// value is usable; a nil *Histogram records nothing.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0; initialized lazily
	max     atomic.Int64
	minInit sync.Once
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d vtime.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// Observe records one virtual duration.
func (h *Histogram) Observe(d vtime.Duration) {
	if h == nil {
		return
	}
	h.minInit.Do(func() { h.min.Store(math.MaxInt64) })
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketIndex(d)].Add(1)
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns how many durations were observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// merge adds o's observations into h. o must be quiescent.
func (h *Histogram) merge(o *Histogram) {
	n := o.count.Load()
	if n == 0 {
		return
	}
	h.minInit.Do(func() { h.min.Store(math.MaxInt64) })
	h.count.Add(n)
	h.sum.Add(o.sum.Load())
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	if lo := o.min.Load(); lo < h.min.Load() {
		h.min.Store(lo)
	}
	if hi := o.max.Load(); hi > h.max.Load() {
		h.max.Store(hi)
	}
}

// snapshot folds the histogram into its serializable form.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumNs: h.sum.Load()}
	if s.Count > 0 {
		s.MinNs = h.min.Load()
		s.MaxNs = h.max.Load()
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			upper := int64(0)
			if i > 0 && i < 64 {
				upper = int64(1) << i
			} else if i >= 64 {
				upper = math.MaxInt64
			}
			s.Buckets = append(s.Buckets, Bucket{UpperNs: upper, Count: n})
		}
	}
	return s
}

// Registry is a named collection of metrics. Handles are created on first
// use and stable thereafter, so hot paths look a metric up once and cache
// the pointer. A nil *Registry is valid: its lookups return nil handles,
// which record nothing.
type Registry struct {
	mu sync.Mutex
	// shared holds every name that is not scoped to an open query scope.
	shared metricSet
	// scopes holds the open query scopes by query id. Nil until the first
	// OpenScope: every RP owns a private registry that never opens one.
	scopes map[string]*Scope
}

// metricSet is one namespace of metrics: under a name, at most one metric
// of each kind.
type metricSet map[string]metric

type metric struct {
	c *Counter
	g *Gauge
	h *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{shared: make(metricSet)}
}

// Scope is one query's share of a registry: the metrics created, since
// OpenScope, under names whose query segment (see scopeSegment) is the
// query's id. Keeping them apart makes Fold cost that query's keys, and lets
// the whole set go at once instead of churning the shared map. A nil *Scope
// is valid and folds nothing.
type Scope struct {
	reg *Registry
	qid string
	set metricSet // nil until the query's first metric
}

// retiredSuffix replaces the identity part of a folded query's metric names:
// Fold adds "rp.elements_out.q7/rp-bg-2" into "rp.elements_out.retired".
const retiredSuffix = "retired"

// OpenScope sets the metrics created under query id qid apart from now on.
// Call it before the query's first metric is created. A nil registry returns
// a nil scope.
func (r *Registry) OpenScope(qid string) *Scope {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.scopes == nil {
		r.scopes = make(map[string]*Scope)
	}
	s := &Scope{reg: r, qid: qid}
	r.scopes[qid] = s
	return s
}

// setLocked returns the set name lives in: the open scope's its query
// segment names, else the shared one. r.mu must be held.
func (r *Registry) setLocked(name string) metricSet {
	start, end := scopeSegment(name, func(id string) bool { return r.scopes[id] != nil })
	if start < 0 {
		return r.shared
	}
	s := r.scopes[name[start:end]]
	if s.set == nil {
		// A two-process query creates 16 keys: room for those up front
		// spares the small scope the regrowths.
		s.set = make(metricSet, 16)
	}
	return s.set
}

// Fold closes the scope: every metric in it is removed and its value folded
// into the shared key of the same prefix that ends in retiredSuffix —
// counters and histograms are added, gauges keep the maximum. Sums over a
// name prefix (Snapshot.SumCounters) therefore never lose a folded query's
// contribution, while the registry's size stays bounded by the scopes still
// open. The query must be quiescent: handles cached by its processes are
// detached, so a later update through them is lost. Folding again is a no-op.
func (s *Scope) Fold() {
	if s == nil {
		return
	}
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.scopes[s.qid] == s {
		delete(r.scopes, s.qid)
	}
	// The retired key is built in place: a lookup by string(key) does not
	// allocate, and only the first fold under a prefix stores the key.
	var buf [64]byte
	key := buf[:0]
	for name, m := range s.set {
		// Every name in the set carries the scope's id as its query segment.
		start, _ := scopeSegment(name, func(id string) bool { return id == s.qid })
		key = append(append(key[:0], name[:start]...), retiredSuffix...)
		had := r.shared[string(key)]
		into := had
		if m.c != nil {
			if into.c == nil {
				into.c = new(Counter)
			}
			into.c.Add(m.c.Value())
		}
		if m.g != nil {
			if into.g == nil {
				into.g = new(Gauge)
			}
			into.g.SetMax(m.g.Value())
		}
		if m.h != nil {
			if into.h == nil {
				into.h = new(Histogram)
			}
			into.h.merge(m.h)
		}
		if into != had {
			r.shared[string(key)] = into
		}
	}
	s.set = nil
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.setLocked(name)
	m := set[name]
	if m.c == nil {
		m.c = new(Counter)
		set[name] = m
	}
	return m.c
}

// Gauge returns the named gauge, creating it if needed (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.setLocked(name)
	m := set[name]
	if m.g == nil {
		m.g = new(Gauge)
		set[name] = m
	}
	return m.g
}

// Histogram returns the named histogram, creating it if needed (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.setLocked(name)
	m := set[name]
	if m.h == nil {
		m.h = new(Histogram)
		set[name] = m
	}
	return m.h
}

// Bucket is one non-empty histogram bucket: Count observations below
// UpperNs (and at or above the previous bucket's bound). UpperNs 0 is the
// bucket of non-positive durations.
type Bucket struct {
	UpperNs int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	SumNs   int64    `json:"sum_ns"`
	MinNs   int64    `json:"min_ns"`
	MaxNs   int64    `json:"max_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// MeanNs returns the mean observed duration in nanoseconds.
func (h HistogramSnapshot) MeanNs() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNs) / float64(h.Count)
}

// Snapshot is a point-in-time, JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. It is safe to call while
// writers are recording; each individual metric is read atomically. An
// empty snapshot is returned for a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	// Values are read under the lock: each is one atomic load (a histogram,
	// one per bucket), and it spares a copy of the handle maps.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shared.snapshotInto(&s)
	for _, sc := range r.scopes {
		sc.set.snapshotInto(&s)
	}
	return s
}

func (set metricSet) snapshotInto(s *Snapshot) {
	for k, m := range set {
		if m.c != nil {
			s.Counters[k] = m.c.Value()
		}
		if m.g != nil {
			s.Gauges[k] = m.g.Value()
		}
		if m.h != nil {
			s.Histograms[k] = m.h.snapshot()
		}
	}
}

// Deterministic returns the snapshot minus wall-clock-dependent metrics
// (names prefixed "rt."). Two same-seed runs produce identical
// deterministic views; the full snapshot may differ in rt.* entries.
func (s Snapshot) Deterministic() Snapshot {
	return s.filter(func(name string) bool { return !strings.HasPrefix(name, RTPrefix) })
}

// filter returns the metrics of s whose names keep accepts.
func (s Snapshot) filter(keep func(name string) bool) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for k, v := range s.Counters {
		if keep(k) {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if keep(k) {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if keep(k) {
			out.Histograms[k] = v
		}
	}
	return out
}

// QueryScoped reports whether a metric name belongs to the given query id.
// The engine embeds query ids into process identities as path segments
// ("rp.elements_out.q1/rp-bg-2", "recv.bytes.q1/client") and scheduler
// metrics carry the id as a dotted suffix ("sched.nodes.q1"); both forms
// match, and "q1" never matches "q12".
func QueryScoped(name, qid string) bool {
	if qid == "" {
		return false
	}
	start, _ := scopeSegment(name, func(id string) bool { return id == qid })
	return start >= 0
}

// scopeSegment finds the query-id segment of a metric name: the first
// segment accepted by isID that either heads a path-qualified identity
// (it follows a '.' separator, or starts the name, and a '/' follows it) or
// is the name's dotted suffix. Every '/' is tried — an earlier non-segment
// hit ("x.freq1/merge.q1/client" for "q1") must not mask a genuine one. It
// returns the segment's bounds, or -1, -1.
func scopeSegment(name string, isID func(string) bool) (start, end int) {
	for off := 0; ; {
		j := strings.IndexByte(name[off:], '/')
		if j < 0 {
			break
		}
		j += off
		i := strings.LastIndexByte(name[:j], '.') + 1
		if isID(name[i:j]) {
			return i, j
		}
		off = j + 1
	}
	if i := strings.LastIndexByte(name, '.') + 1; i > 0 && isID(name[i:]) {
		return i, len(name)
	}
	return -1, -1
}

// ForQuery filters the snapshot down to one query's metrics: every counter,
// gauge, and histogram whose name is scoped to qid (see QueryScoped). This
// is what lets monitor() and the shell's \stats inspect a single tenant of
// a multi-query engine.
func (s Snapshot) ForQuery(qid string) Snapshot {
	return s.filter(func(name string) bool { return QueryScoped(name, qid) })
}

// SumCounters sums every counter whose name starts with prefix — e.g.
// SumCounters("link.bytes.mpi:") is the total payload volume delivered over
// MPI links.
func (s Snapshot) SumCounters(prefix string) int64 {
	var sum int64
	for k, v := range s.Counters {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// CounterNames returns the counter names sorted, for stable iteration.
func (s Snapshot) CounterNames() []string {
	return sortedKeys(s.Counters)
}

// GaugeNames returns the gauge names sorted.
func (s Snapshot) GaugeNames() []string {
	return sortedKeys(s.Gauges)
}

// HistogramNames returns the histogram names sorted.
func (s Snapshot) HistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func sortedKeys(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
