package sqep

import (
	"fmt"
	"math"
	"sync"

	"scsq/internal/marshal"
	"scsq/internal/vtime"
)

// GenArray implements the paper's gen_array(size, count): a finite stream of
// count numerical arrays of size bytes each. Generating an array charges the
// producing node's CPU (GenByte per byte), so a producer cannot emit faster
// than its CPU allows. Every element's Value is one interface value holding
// the size's shared template, boxed once per Open: Next allocates nothing,
// and Encoding still recognises the array inside it.
type GenArray struct {
	SizeBytes int
	Count     int

	ctx     *Ctx
	emitted int
	now     vtime.Time
	// template is the process-wide []float64 of its size, boxed by Open.
	// Reusing one array mirrors the paper's workload, where array content is
	// irrelevant to the communication measurements.
	template any
}

// genCacheBytes bounds the bytes genTemplates holds: comfortably above the
// paper's 3 MB arrays, and above the few dozen sizes a served workload draws
// from one range. It counts bytes, not entries, because a template's size is
// whatever a query asks for.
const genCacheBytes = 16 << 20

// genTemplates holds one immutable template per element count: element i is
// float64(i % 997), laid out behind its own wire header (marshal.NewArray), so
// a sender can hand out windows of its encoding instead of copying it. A
// template is never written after it is published — stream arrays are
// read-only downstream. When a new template would take the cache past
// genCacheBytes the cache restarts empty: views handed out earlier stay valid
// and correct, they are just no longer templates.
var genTemplates struct {
	mu    sync.Mutex
	bytes int
	m     map[int]genTemplate
}

// genTemplate is one template and its encoding (nil on big-endian hosts).
type genTemplate struct {
	arr []float64
	enc []byte
}

// sharedTemplate returns the template of n elements, capped at n so an append
// cannot write behind it.
func sharedTemplate(n int) []float64 {
	c := &genTemplates
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.m[n]; ok {
		return t.arr
	}
	arr, enc := marshal.NewArray(n)
	for i := range arr {
		arr[i] = float64(i % 997)
	}
	size := 8 * (n + 1)
	if size > genCacheBytes {
		return arr
	}
	if c.m == nil || c.bytes+size > genCacheBytes {
		c.m, c.bytes = map[int]genTemplate{}, 0
	}
	c.m[n] = genTemplate{arr, enc}
	c.bytes += size
	return arr
}

// Encoding returns the wire encoding of x when x is a cached gen_array
// template — the very array, matched by pointer and length, not one equal to
// it — whose storage can never change, so a frame may carry a window of it
// instead of a copy. It reports false for every other array, a view of a
// template included.
func Encoding(x []float64) ([]byte, bool) {
	c := &genTemplates
	c.mu.Lock()
	t, ok := c.m[len(x)]
	c.mu.Unlock()
	if !ok || t.enc == nil || len(x) == 0 || &t.arr[0] != &x[0] {
		return nil, false
	}
	return t.enc, true
}

var _ Operator = (*GenArray)(nil)

// NewGenArray returns a gen_array operator.
func NewGenArray(sizeBytes, count int) *GenArray {
	return &GenArray{SizeBytes: sizeBytes, Count: count}
}

// Open implements Operator.
func (g *GenArray) Open(ctx *Ctx) error {
	if g.SizeBytes <= 0 {
		return fmt.Errorf("sqep: gen_array: size must be positive, got %d", g.SizeBytes)
	}
	if g.Count < 0 {
		return fmt.Errorf("sqep: gen_array: count must be non-negative, got %d", g.Count)
	}
	g.ctx = ctx
	g.emitted = 0
	g.now = 0
	n := g.SizeBytes / 8
	if n < 1 {
		n = 1
	}
	g.template = sharedTemplate(n) // boxed here, not per element
	return nil
}

// Next implements Operator.
func (g *GenArray) Next() (Element, bool, error) {
	if g.emitted >= g.Count {
		return Element{}, false, nil
	}
	g.emitted++
	cost := vtime.Duration(g.ctx.Cost.GenByte * float64(g.SizeBytes))
	g.now = g.ctx.Charge(g.now, cost)
	return Element{Value: g.template, At: g.now}, true, nil
}

// Close implements Operator.
func (g *GenArray) Close() error { return nil }

// Iota implements iota(n, m): the stream of integers n..m inclusive
// (paper §2.4). An empty stream results when m < n. Values box into the
// operator's slabs, each sized by what the stream still has to emit.
type Iota struct {
	From, To int64

	next  int64
	done  bool
	boxes marshal.Boxes
}

var _ Operator = (*Iota)(nil)

// NewIota returns an iota operator.
func NewIota(from, to int64) *Iota { return &Iota{From: from, To: to} }

// Open implements Operator.
func (i *Iota) Open(*Ctx) error {
	i.next = i.From
	i.done = i.From > i.To
	return nil
}

// Next implements Operator.
func (i *Iota) Next() (Element, bool, error) {
	if i.done {
		return Element{}, false, nil
	}
	v := i.next
	i.done, i.next = v == i.To, v+1 // v+1 wraps only past math.MaxInt64, once done
	// To-v is exact as a uint64 even across the whole int64 range; the
	// count still to emit, v included, saturates instead of wrapping to 0.
	left := min(uint64(i.To-v), math.MaxUint64-1) + 1
	return Element{Value: i.boxes.Int(v, left)}, true, nil
}

// Close implements Operator.
func (i *Iota) Close() error { return nil }
