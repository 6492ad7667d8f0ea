// Package sqep implements SCSQ's Stream Query Execution Plans. Each running
// process compiles its continuous subquery into a local SQEP — a tree of
// stream operators — and interprets it (paper §2.3). Operators are
// pull-based iterators over timestamped elements; CPU work they perform is
// charged against the executing node's virtual CPU so that operator cost is
// part of the measured makespan.
package sqep

import (
	"errors"
	"fmt"

	"scsq/internal/hw"
	"scsq/internal/vtime"
)

// Element is one stream item.
type Element struct {
	// Value is the stream object: int64, float64, bool, string, []float64
	// (numerical array) or []any (bag).
	Value any
	// At is the virtual instant the element became available.
	At vtime.Time
	// Src identifies the producing RP for elements that crossed a carrier;
	// operators such as radixcombine use it to demultiplex merged streams.
	Src string
}

// Operator is a pull-based stream iterator. The contract follows the usual
// volcano model: Open, then Next until ok is false, then Close. Operators
// are not safe for concurrent use.
type Operator interface {
	// Open prepares the operator and its inputs.
	Open(ctx *Ctx) error
	// Next returns the next element. ok is false at end of stream.
	Next() (el Element, ok bool, err error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// ValueUse is how much of an element's Value a consumer reads; each level
// lets the producing operator do less work than the one before.
type ValueUse int

const (
	Owned    ValueUse = iota // the consumer keeps values (the default)
	Borrowed                 // a Value is valid only until the following Next
	Unread                   // the consumer reads At and Src only; Value may be nil
)

// ValueUser is implemented by operators that can save work when told how
// their consumer uses values.
type ValueUser interface {
	UseValues(u ValueUse)
}

// UseValues tells op, if it is a ValueUser, how its consumer uses each
// element's Value. A consumer says it before it opens op.
func UseValues(op Operator, u ValueUse) {
	if v, ok := op.(ValueUser); ok {
		v.UseValues(u)
	}
}

// SourceFunc produces the elements of a named external stream source (the
// paper's receiver() function, which returns a stream of 1D arrays of
// signal data).
type SourceFunc func(ctx *Ctx) Operator

// Ctx is the execution context of a SQEP: the executing node's CPU, the
// cost model, and the engine-provided environment for table and source
// functions.
type Ctx struct {
	// CPU is the executing node's virtual CPU resource.
	CPU *vtime.Resource
	// Cost is the environment's cost model, shared by every process of the
	// engine and never changed while they run. It must be set before an
	// operator that charges by it (aggregates, windows, gen_array) opens.
	Cost *hw.CostModel
	// Files backs the filename(i) table and grep() of the mapreduce
	// example.
	Files FileTable
	// Sources resolves receiver(name) to external stream sources.
	Sources map[string]SourceFunc
	// Owner is the query id CPU charges are attributed to in the per-owner
	// busy accounting of shared resources ("" = anonymous).
	Owner string
	// ID names the executing process: every CPU request it submits is keyed
	// (Owner, ID, Seq), and Seq counts them. The process's sender drivers
	// number their marshal requests from the same Seq, so the numbering is
	// the program order of the process's one goroutine.
	ID  string
	Seq uint64
	// Cancel is the owning query's cancel signal; nil when there is no
	// query to cancel (unit tests).
	Cancel CancelSignal
	// Agent is the executing process in the engine's kernel: its requests
	// are granted in its turn (Charge), and operators wait on channels
	// through it (vtime.Recv, vtime.Wait). Nil outside a process.
	Agent *vtime.Agent
}

// CancelSignal tells an operator that its query was cancelled. A source
// that blocks outside the stream graph, where the inbox poisoning of a
// cancel cannot reach it, selects on Done and ends its stream with Cause().
type CancelSignal interface {
	// Done returns a channel that closes when the query is cancelled.
	Done() <-chan struct{}
	// Cause returns the planted reason once Done has closed.
	Cause() error
}

// Charge submits one request for service on the context CPU, ready no
// earlier than ready, in the process's turn, and returns its end. A nil CPU
// (pure in-process evaluation, used in unit tests) grants without
// contention; so does a nil Ctx, unkeyed.
func (c *Ctx) Charge(ready vtime.Time, service vtime.Duration) vtime.Time {
	q := [1]vtime.Request{{Ready: ready, Service: service}}
	if c == nil {
		vtime.Submit("", q[:])
		return q[0].End
	}
	q[0].Resource, q[0].Stream, q[0].Seq = c.CPU, c.ID, c.Seq
	c.Seq++
	c.Agent.Submit(c.Owner, q[:])
	return q[0].End
}

// FileTable maps file names to contents for the distributed-grep example.
type FileTable interface {
	// Name returns the i-th file name (1-based, as iota(1,1000) generates).
	Name(i int64) (string, error)
	// Read returns the contents of the named file.
	Read(name string) (string, error)
}

// ErrNoFileTable is returned by grep/filename when the context has no file
// table.
var ErrNoFileTable = errors.New("sqep: no file table configured")

// Slice is an operator over a fixed set of elements, used by tests and as a
// building block for scalar results.
type Slice struct {
	Elements []Element
	pos      int
}

var _ Operator = (*Slice)(nil)

// NewSlice returns an operator yielding the given values with zero
// timestamps.
func NewSlice(values ...any) *Slice {
	s := &Slice{}
	for _, v := range values {
		s.Elements = append(s.Elements, Element{Value: v})
	}
	return s
}

// Open implements Operator.
func (s *Slice) Open(*Ctx) error { s.pos = 0; return nil }

// Next implements Operator.
func (s *Slice) Next() (Element, bool, error) {
	if s.pos >= len(s.Elements) {
		return Element{}, false, nil
	}
	el := s.Elements[s.pos]
	s.pos++
	return el, true, nil
}

// Close implements Operator.
func (s *Slice) Close() error { return nil }

// typeErrorf builds a consistent operator type error.
func typeErrorf(op string, v any) error {
	return fmt.Errorf("sqep: %s: unsupported value type %T", op, v)
}
