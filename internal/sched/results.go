package sched

// results.go is the incremental result path of a session: elements are
// pushed into a per-query buffer as the client manager receives them (via
// core.ClientStream.SetElementObserver), and any number of ResultIter
// readers consume the buffer concurrently with the drain. This is what the
// network serving layer streams result frames from — a row leaves the
// server as soon as the simulation produces it, not when the session
// reaches a terminal state. Wait() is a thin wrapper that reads the same
// buffer to the end.

import (
	"sync"

	"scsq/internal/sqep"
)

// resultsState is the shared element buffer of one session.
type resultsState struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []sqep.Element
	end  bool
}

// results lazily initializes and returns the session's buffer. The
// sync.Once keeps initialization safe from any goroutine (submitters,
// the run loop, iterator readers).
func (q *Query) results() *resultsState {
	q.resOnce.Do(func() {
		q.res = &resultsState{}
		q.res.cond = sync.NewCond(&q.res.mu)
	})
	return q.res
}

// pushResult appends one element and wakes blocked iterators. Called
// synchronously from the client stream's drain loop.
func (q *Query) pushResult(el sqep.Element) {
	r := q.results()
	r.mu.Lock()
	r.buf = append(r.buf, el)
	r.mu.Unlock()
	r.cond.Broadcast()
}

// endResults marks the stream complete and wakes blocked iterators. It is
// called on every finalization path, immediately before q.done closes, so
// an iterator never blocks past the session's terminal state.
func (q *Query) endResults() {
	r := q.results()
	r.mu.Lock()
	r.end = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// ResultIter iterates a session's result elements incrementally: Next
// returns each element as soon as the simulation delivers it to the client
// manager, then reports the end of the stream once the session is terminal.
// Iterators are independent — each starts from the first element — and one
// iterator must not be shared between goroutines.
type ResultIter struct {
	q   *Query
	pos int
}

// Results returns a new incremental iterator over the session's result
// elements. It may be called in any state; elements buffered before the
// call are replayed first.
func (q *Query) Results() *ResultIter {
	q.results()
	return &ResultIter{q: q}
}

// Next blocks until another element is available or the session reaches a
// terminal state. ok is false at the end of the stream, in which case err
// is the session's terminal error (nil for Done).
func (it *ResultIter) Next() (sqep.Element, bool, error) {
	els, ok, err := it.next(1)
	if !ok {
		return sqep.Element{}, false, err
	}
	return els[0], true, nil
}

// NextBatch blocks like Next and then returns every element buffered past
// the iterator's position — at least one — under one lock. The batch is a
// read-only view of the session's append-only result buffer, valid for as
// long as the caller likes; when it is exhausted the next call would block,
// which is the serving layer's cue to flush.
func (it *ResultIter) NextBatch() ([]sqep.Element, bool, error) {
	return it.next(-1)
}

// next returns up to limit buffered elements (all of them when limit is
// negative), blocking while there is none and the stream has not ended.
func (it *ResultIter) next(limit int) ([]sqep.Element, bool, error) {
	r := it.q.results()
	r.mu.Lock()
	for it.pos == len(r.buf) {
		if r.end {
			r.mu.Unlock()
			return nil, false, it.q.Err()
		}
		r.cond.Wait()
	}
	end := len(r.buf)
	if limit >= 0 && it.pos+limit < end {
		end = it.pos + limit
	}
	// The buffer only ever grows by append, which never writes below its
	// length, so elements below end are immutable from here on; the capped
	// slice keeps a caller's append off the live tail.
	els := r.buf[it.pos:end:end]
	r.mu.Unlock()
	it.pos = end
	return els, true, nil
}
