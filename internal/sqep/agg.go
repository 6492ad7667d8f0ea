package sqep

import (
	"scsq/internal/vtime"
)

// Count implements count(): it consumes its (finite) input stream and emits
// a single integer, the number of elements. Each folded element charges
// AggElemCost on the executing CPU, and the result carries the timestamp of
// the last input — the makespan of the counted stream — which is what makes
// "stream a finite stream and count it at the far end" a bandwidth
// measurement (paper §3).
type Count struct {
	Input Operator

	ctx  *Ctx
	done bool
}

var _ Operator = (*Count)(nil)

// NewCount returns a count operator over input.
func NewCount(input Operator) *Count { return &Count{Input: input} }

// Open implements Operator.
func (c *Count) Open(ctx *Ctx) error {
	c.ctx = ctx
	c.done = false
	UseValues(c.Input, Unread) // an element is counted, its value never read
	return c.Input.Open(ctx)
}

// Next implements Operator.
func (c *Count) Next() (Element, bool, error) {
	if c.done {
		return Element{}, false, nil
	}
	var (
		n   int64
		now vtime.Time
	)
	for {
		el, ok, err := c.Input.Next()
		if err != nil {
			return Element{}, false, err
		}
		if !ok {
			break
		}
		n++
		now = c.ctx.Charge(max(now, el.At), c.ctx.Cost.AggElemCost)
	}
	c.done = true
	return Element{Value: n, At: now}, true, nil
}

// Close implements Operator.
func (c *Count) Close() error { return c.Input.Close() }

// Sum implements sum(): it consumes a finite stream of numbers and emits
// their sum (int64 if every input was an integer, float64 otherwise).
type Sum struct {
	Input Operator

	ctx  *Ctx
	done bool
}

var _ Operator = (*Sum)(nil)

// NewSum returns a sum operator over input.
func NewSum(input Operator) *Sum { return &Sum{Input: input} }

// Open implements Operator.
func (s *Sum) Open(ctx *Ctx) error {
	s.ctx = ctx
	s.done = false
	UseValues(s.Input, Borrowed) // an element is folded and forgotten
	return s.Input.Open(ctx)
}

// Next implements Operator.
func (s *Sum) Next() (Element, bool, error) {
	if s.done {
		return Element{}, false, nil
	}
	var (
		ints    int64
		floats  float64
		sawAny  bool
		sawReal bool
		now     vtime.Time
	)
	for {
		el, ok, err := s.Input.Next()
		if err != nil {
			return Element{}, false, err
		}
		if !ok {
			break
		}
		switch v := el.Value.(type) {
		case int64:
			ints += v
		case float64:
			floats += v
			sawReal = true
		default:
			return Element{}, false, typeErrorf("sum", el.Value)
		}
		sawAny = true
		now = s.ctx.Charge(max(now, el.At), s.ctx.Cost.AggElemCost)
	}
	s.done = true
	var out any
	switch {
	case sawReal:
		out = floats + float64(ints)
	case sawAny:
		out = ints
	default:
		out = int64(0)
	}
	return Element{Value: out, At: now}, true, nil
}

// Close implements Operator.
func (s *Sum) Close() error { return s.Input.Close() }

// StreamOf implements streamof(e): it transforms the output of any
// expression into a stream (paper §2.4). Operationally the engine already
// represents scalar results as one-element streams, so StreamOf is the
// identity operator; it exists so plans mirror the queries that produced
// them.
type StreamOf struct {
	Input Operator
}

var _ Operator = (*StreamOf)(nil)

// NewStreamOf returns a streamof operator over input.
func NewStreamOf(input Operator) *StreamOf { return &StreamOf{Input: input} }

// Open implements Operator.
func (s *StreamOf) Open(ctx *Ctx) error { return s.Input.Open(ctx) }

// UseValues implements ValueUser: the identity uses values as its consumer
// does.
func (s *StreamOf) UseValues(u ValueUse) { UseValues(s.Input, u) }

// Next implements Operator.
func (s *StreamOf) Next() (Element, bool, error) { return s.Input.Next() }

// Close implements Operator.
func (s *StreamOf) Close() error { return s.Input.Close() }
