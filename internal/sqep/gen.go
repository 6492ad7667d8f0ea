package sqep

import (
	"fmt"
	"sync"

	"scsq/internal/vtime"
)

// GenArray implements the paper's gen_array(size, count): a finite stream of
// count numerical arrays of size bytes each. Generating an array charges the
// producing node's CPU (GenByte per byte), so a producer cannot emit faster
// than its CPU allows.
type GenArray struct {
	SizeBytes int
	Count     int

	ctx     *Ctx
	emitted int
	now     vtime.Time
	// template is a view of the process-wide one; each element reuses it,
	// mirroring the paper's workload where array content is irrelevant to
	// the communication measurements.
	template []float64
}

// genTemplate is the array every gen_array emits a prefix of: element i is
// float64(i % 997) whatever the length. It only ever grows, by replacement,
// and is never written after it is published — stream arrays are read-only
// downstream — so views handed out earlier stay valid and correct.
var genTemplate struct {
	mu   sync.Mutex
	vals []float64
}

// sharedTemplate returns the first n elements of genTemplate, capped so an
// append cannot reach the elements behind them.
func sharedTemplate(n int) []float64 {
	t := &genTemplate
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.vals) < n {
		// At least doubling bounds what a run of ever larger sizes leaves
		// behind to twice the largest.
		vals := make([]float64, max(n, 2*len(t.vals)))
		for i := range vals {
			vals[i] = float64(i % 997)
		}
		t.vals = vals
	}
	return t.vals[:n:n]
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
	g.template = sharedTemplate(n)
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
// (paper §2.4). An empty stream results when m < n.
type Iota struct {
	From, To int64

	next int64
	done bool
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
	if i.done || i.next > i.To {
		return Element{}, false, nil
	}
	v := i.next
	i.next++
	return Element{Value: v}, true, nil
}

// Close implements Operator.
func (i *Iota) Close() error { return nil }
