package sqep

// Thunk is an operator whose elements are produced by a function evaluated
// lazily at Open. It turns point-in-time system state — such as a telemetry
// snapshot — into an ordinary stream: the capture happens when the plan
// opens, not when the query is compiled, so a sys_metrics() statement issued
// after a run observes that run's final counters.
type Thunk struct {
	// Label names the thunk in errors and plan dumps.
	Label string
	// Fn produces the stream values. It runs once, at Open; elements carry
	// zero timestamps (reading state takes no modeled time).
	Fn func() ([]any, error)

	elems []Element
	pos   int
}

var _ Operator = (*Thunk)(nil)

// NewThunk returns an operator yielding fn's values, evaluated at Open.
func NewThunk(label string, fn func() ([]any, error)) *Thunk {
	return &Thunk{Label: label, Fn: fn}
}

// Open implements Operator.
func (t *Thunk) Open(*Ctx) error {
	values, err := t.Fn()
	if err != nil {
		return err
	}
	t.elems = t.elems[:0]
	for _, v := range values {
		t.elems = append(t.elems, Element{Value: v})
	}
	t.pos = 0
	return nil
}

// Next implements Operator.
func (t *Thunk) Next() (Element, bool, error) {
	if t.pos >= len(t.elems) {
		return Element{}, false, nil
	}
	el := t.elems[t.pos]
	t.pos++
	return el, true, nil
}

// Close implements Operator.
func (t *Thunk) Close() error { return nil }
