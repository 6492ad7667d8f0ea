package sqep

import (
	"reflect"
	"testing"
)

func TestLimitBasic(t *testing.T) {
	got := drainValues(t, NewLimit(NewIota(1, 100), 3), nil)
	want := []any{int64(1), int64(2), int64(3)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("limit = %v, want %v", got, want)
	}
}

func TestLimitLongerThanStream(t *testing.T) {
	got := drainValues(t, NewLimit(NewIota(1, 2), 10), nil)
	if len(got) != 2 {
		t.Errorf("limit past end = %v, want 2 elements", got)
	}
}

func TestLimitZero(t *testing.T) {
	got := drainValues(t, NewLimit(NewIota(1, 5), 0), nil)
	if len(got) != 0 {
		t.Errorf("limit 0 = %v, want empty", got)
	}
}

func TestLimitNegative(t *testing.T) {
	if err := NewLimit(NewIota(1, 5), -1).Open(testCtx()); err == nil {
		t.Error("negative limit should fail")
	}
}

// closeCounter records whether the wrapped operator was closed.
type closeCounter struct {
	Operator
	closed int
}

func (c *closeCounter) Close() error {
	c.closed++
	return c.Operator.Close()
}

func TestLimitClosesInputEarly(t *testing.T) {
	in := &closeCounter{Operator: NewIota(1, 1000)}
	l := NewLimit(in, 2)
	ctx := testCtx()
	if err := l.Open(ctx); err != nil {
		t.Fatal(err)
	}
	els, err := drain(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 2 {
		t.Fatalf("elements = %d, want 2", len(els))
	}
	if in.closed == 0 {
		t.Error("limit must close its input when the stop condition fires")
	}
}
