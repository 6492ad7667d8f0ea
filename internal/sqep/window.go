package sqep

import (
	"fmt"

	"scsq/internal/vtime"
)

// WindowKind selects the aggregate computed over each window.
type WindowKind int

// Window aggregate kinds.
const (
	WindowCount WindowKind = iota + 1
	WindowSum
	WindowAvg
	WindowMin
	WindowMax
)

func (k WindowKind) String() string {
	if k < WindowCount || k > WindowMax {
		return "unknown"
	}
	return [...]string{"count", "sum", "avg", "min", "max"}[k-WindowCount]
}

// Window implements count-based window aggregation over a numeric stream —
// one of the "common stream operators including window aggregation" the
// paper credits SCSQ with (§4). Size is the window length in elements and
// Slide the distance between window starts; Slide == Size gives tumbling
// windows, Slide < Size sliding ones. A trailing partial window is emitted
// at end of stream if it contains at least one element.
type Window struct {
	Input Operator
	Kind  WindowKind
	Size  int
	Slide int

	ctx  *Ctx
	buf  []float64
	ts   []vtime.Time
	done bool
}

var _ Operator = (*Window)(nil)

// NewWindow returns a window-aggregate operator.
func NewWindow(input Operator, kind WindowKind, size, slide int) *Window {
	return &Window{Input: input, Kind: kind, Size: size, Slide: slide}
}

// Open implements Operator.
func (w *Window) Open(ctx *Ctx) error {
	if w.Size <= 0 {
		return fmt.Errorf("sqep: window: size must be positive, got %d", w.Size)
	}
	if w.Slide <= 0 {
		return fmt.Errorf("sqep: window: slide must be positive, got %d", w.Slide)
	}
	w.ctx = ctx
	w.buf, w.ts = nil, nil
	w.done = false
	return w.Input.Open(ctx)
}

// Next implements Operator.
func (w *Window) Next() (Element, bool, error) {
	if w.done {
		if len(w.buf) == 0 {
			return Element{}, false, nil
		}
		return w.emit() // drain trailing partial windows
	}
	for len(w.buf) < w.Size {
		el, ok, err := w.Input.Next()
		if err != nil {
			return Element{}, false, err
		}
		if !ok {
			w.done = true
			if len(w.buf) == 0 {
				return Element{}, false, nil
			}
			return w.emit()
		}
		f, err := asFloat(el.Value)
		if err != nil {
			return Element{}, false, err
		}
		w.buf = append(w.buf, f)
		w.ts = append(w.ts, el.At)
	}
	return w.emit()
}

func (w *Window) emit() (Element, bool, error) {
	n := len(w.buf)
	var (
		agg float64
		at  vtime.Time
	)
	minV, maxV := w.buf[0], w.buf[0]
	for i, v := range w.buf {
		agg += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		at = max(at, w.ts[i])
	}
	var out any
	switch w.Kind {
	case WindowCount:
		out = int64(n)
	case WindowSum:
		out = agg
	case WindowAvg:
		out = agg / float64(n)
	case WindowMin:
		out = minV
	case WindowMax:
		out = maxV
	default:
		return Element{}, false, fmt.Errorf("sqep: window: unknown kind %d", w.Kind)
	}
	at = w.ctx.Charge(at, vtime.Duration(n)*w.ctx.Cost.AggElemCost)

	if w.Slide >= len(w.buf) {
		w.buf, w.ts = w.buf[:0], w.ts[:0]
	} else {
		w.buf = append(w.buf[:0], w.buf[w.Slide:]...)
		w.ts = append(w.ts[:0], w.ts[w.Slide:]...)
	}
	return Element{Value: out, At: at}, true, nil
}

// Close implements Operator.
func (w *Window) Close() error { return w.Input.Close() }

func asFloat(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	default:
		return 0, typeErrorf("window", v)
	}
}
