// Package metrics is SCSQ's virtual-time telemetry subsystem. The paper's
// thesis is that the stream engine *is* the measurement instrument; this
// package turns the instrument on itself: a registry of counters, gauges
// and virtual-time histograms fed by instrumentation hooks in the carriers
// (frames/bytes/drops per link, delivery latency), the RP drivers (marshal
// and flush latency, inbox depth), the chaos injector (faults by kind), the
// coordinators (node kills) and the supervisor (re-placements).
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
// cached: a process takes all of its metrics as one Block, by its identity
// (Family, id) — names exist only in what Snapshot returns. A nil *Registry
// (and the nil handles it returns) is valid and records nothing, so
// instrumentation points need no conditionals.
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

// Family is the shape of one kind of process's telemetry — an RP, a receiver,
// a link: the name prefixes of its counters, gauges and histograms, in slot
// order. A process's identity is a value, (family, id); its metric names
// ("rp.elements_out." + "q7/rp-bg-2") are composed only when somebody reads
// (Snapshot). Families are package variables of the package that owns the
// names; a Block has room for three counters, one gauge and two histograms.
type Family struct {
	Counters, Gauges, Hists []string
}

// Block holds every metric of one process: one small allocation (plus one per
// histogram) taken in one registration. It refers to nothing of the process,
// so a registry that keeps a finished query's blocks readable pins none of its
// operator trees. A nil *Block hands out nil handles, which record nothing.
type Block struct {
	fam  *Family
	id   string
	next *Block // the next block of the same Scope
	c    [3]Counter
	g    [1]Gauge
	h    [2]*Histogram
}

func newBlock(f *Family, id string) *Block {
	b := &Block{fam: f, id: id}
	for i := range f.Hists {
		b.h[i] = new(Histogram)
	}
	return b
}

// Counter returns the handle of the family's i-th counter.
func (b *Block) Counter(i int) *Counter {
	if b == nil {
		return nil
	}
	return &b.c[i]
}

// Gauge returns the handle of the family's i-th gauge.
func (b *Block) Gauge(i int) *Gauge {
	if b == nil {
		return nil
	}
	return &b.g[i]
}

// Histogram returns the handle of the family's i-th histogram.
func (b *Block) Histogram(i int) *Histogram {
	if b == nil {
		return nil
	}
	return b.h[i]
}

// add folds o's values into b, a block of the same family: counters and
// histograms are added, gauges keep the maximum. o must be quiescent.
func (b *Block) add(o *Block) {
	for i := range b.fam.Counters {
		b.c[i].Add(o.c[i].Value())
	}
	for i := range b.fam.Gauges {
		b.g[i].SetMax(o.g[i].Value())
	}
	for i := range b.fam.Hists {
		b.h[i].merge(o.h[i])
	}
}

func (b *Block) snapshotInto(s *Snapshot) {
	for i, prefix := range b.fam.Counters {
		s.Counters[prefix+b.id] = b.c[i].Value()
	}
	for i, prefix := range b.fam.Gauges {
		s.Gauges[prefix+b.id] = b.g[i].Value()
	}
	for i, prefix := range b.fam.Hists {
		s.Histograms[prefix+b.id] = b.h[i].snapshot()
	}
}

// Registry is a collection of metrics. Handles are created on first use and
// stable thereafter, so hot paths resolve a metric once and cache the
// pointer. A nil *Registry is valid: its lookups return nil handles and
// blocks, which record nothing.
type Registry struct {
	mu sync.Mutex
	// shared holds the blocks that belong to no query: those keyed by
	// hardware (a link's, a carrier's), which every query that dials the same
	// connection shares, each family's retired aggregate, and the metrics
	// registered by full name.
	shared map[blockKey]*Block
	// scopes holds the open query scopes by query id.
	scopes map[string]*Scope
}

type blockKey struct {
	fam *Family
	id  string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{shared: make(map[blockKey]*Block), scopes: make(map[string]*Scope)}
}

// Shared returns the block of family f keyed by id in the registry's shared
// set, creating it if needed: the registration of hardware-keyed processes,
// whose metrics outlive any query. Finding an existing block allocates
// nothing and builds no name. A nil registry returns a nil block.
func (r *Registry) Shared(f *Family, id string) *Block {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sharedLocked(f, id)
}

// SharedBytes is Shared for an id spelled in bytes, which become a string
// only when the block is new; it returns the block and its id. A nil
// registry returns a nil block and a new id.
func (r *Registry) SharedBytes(f *Family, id []byte) (*Block, string) {
	if r == nil {
		return nil, string(id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.shared[blockKey{f, string(id)}]
	if b == nil {
		b = r.sharedLocked(f, string(id))
	}
	return b, b.id
}

func (r *Registry) sharedLocked(f *Family, id string) *Block {
	k := blockKey{f, id}
	b := r.shared[k]
	if b == nil {
		b = newBlock(f, id)
		r.shared[k] = b
	}
	return b
}

// Scope is one query's share of a registry: the blocks of the query's
// processes, chained in one list. Keeping them apart makes Fold cost that
// query's processes, and lets the whole set go at once. A nil *Scope is
// valid: it hands out nil blocks and folds nothing.
type Scope struct {
	reg  *Registry
	qid  string
	head *Block
}

// retiredSuffix is the identity of a family's retired aggregate: Fold adds
// "rp.elements_out.q7/rp-bg-2" into "rp.elements_out.retired".
const retiredSuffix = "retired"

// OpenScope opens the scope of query qid. A nil registry returns a nil scope.
func (r *Registry) OpenScope(qid string) *Scope {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Scope{reg: r, qid: qid}
	r.scopes[qid] = s
	return s
}

// Block returns the scope's block of family f under id, creating it if
// needed — the one registration of a query-scoped process. An id names one
// process for the life of its query, so a re-placed process, or the retried
// build of a rolled-back one, counts on where its predecessor stopped. Walking
// the scope's blocks beats hashing names up to a few hundred processes per
// query.
func (s *Scope) Block(f *Family, id string) *Block {
	if s == nil {
		return nil
	}
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	for b := s.head; b != nil; b = b.next {
		if b.fam == f && b.id == id {
			return b
		}
	}
	b := newBlock(f, id)
	b.next, s.head = s.head, b
	return b
}

// Fold closes the scope: every block in it is removed and its values folded
// into the family's shared block of identity retiredSuffix — counters and
// histograms are added, gauges keep the maximum. Sums over a name prefix
// (Snapshot.SumCounters) therefore never lose a folded query's contribution,
// while the registry's size stays bounded by the scopes still open. No name
// is built or parsed: a block knows its family. The query must be quiescent:
// handles cached by its processes are detached, so a later update through
// them is lost, and a block taken afterwards is in no reader's sight. Folding
// again is a no-op.
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
	for b := s.head; b != nil; b = b.next {
		r.sharedLocked(b.fam, retiredSuffix).add(b)
	}
	s.head = nil
}

// A metric registered by full name is a shared block of one slot whose id is
// the whole name. Names are for the fixed metrics that live as long as the
// engine (sched.*, server.*, chaos.*, coord.*, ...); a process takes a Block.
var (
	namedCounter = &Family{Counters: []string{""}}
	namedGauge   = &Family{Gauges: []string{""}}
	namedHist    = &Family{Hists: []string{""}}
)

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter { return r.Shared(namedCounter, name).Counter(0) }

// Gauge returns the named gauge, creating it if needed (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge { return r.Shared(namedGauge, name).Gauge(0) }

// Histogram returns the named histogram, creating it if needed (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram { return r.Shared(namedHist, name).Histogram(0) }

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

// Snapshot is a point-in-time, JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

func newSnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
}

// Snapshot captures the registry's current state. It is safe to call while
// writers are recording; each individual metric is read atomically. An
// empty snapshot is returned for a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := newSnapshot()
	if r == nil {
		return s
	}
	// Values are read under the lock: each is one atomic load (a histogram,
	// one per bucket), and it spares a copy of the handle maps.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.shared {
		b.snapshotInto(&s)
	}
	for _, sc := range r.scopes {
		for b := sc.head; b != nil; b = b.next {
			b.snapshotInto(&s)
		}
	}
	return s
}

// Deterministic returns the snapshot minus wall-clock-dependent metrics
// (names prefixed "rt."). Two same-seed runs produce identical
// deterministic views; the full snapshot may differ in rt.* entries.
func (s Snapshot) Deterministic() Snapshot {
	return s.filter(func(name string) bool { return !strings.HasPrefix(name, RTPrefix) })
}

// filter returns the metrics of s whose names keep accepts.
func (s Snapshot) filter(keep func(name string) bool) Snapshot {
	out := newSnapshot()
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
// match, and "q1" never matches "q12". The segment either heads a
// path-qualified identity (it follows a '.' or starts the name, and a '/'
// follows it) or is the name's dotted suffix; every '/' is tried — an earlier
// non-segment hit ("x.freq1/merge.q1/client" for "q1") must not mask a
// genuine one. This filter over a snapshot is the only place a name is parsed.
func QueryScoped(name, qid string) bool {
	if qid == "" {
		return false
	}
	for off := 0; ; {
		j := strings.IndexByte(name[off:], '/')
		if j < 0 {
			break
		}
		j += off
		if name[strings.LastIndexByte(name[:j], '.')+1:j] == qid {
			return true
		}
		off = j + 1
	}
	i := strings.LastIndexByte(name, '.') + 1
	return i > 0 && name[i:] == qid
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
	return sortedKeys(s.Histograms)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
