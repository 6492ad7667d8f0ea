package sched

// results.go is the incremental result path of a session: elements are
// pushed into a per-query log as the client manager receives them (via
// core.ClientStream.SetElementObserver), and any number of ResultIter
// readers consume the log concurrently with the drain. This is what the
// network serving layer streams result frames from — a row leaves the
// server as soon as the simulation produces it, not when the session
// reaches a terminal state. Wait() reads the same log to the end. The log
// hangs off the Query alone: the session table keeps a finished session's
// row, not the session, so the log goes with the last handle to it.
//
// The log is a singly linked list of segments. An element is written once,
// into the tail segment, and never moved: a full tail gets a successor of
// twice its capacity (up to maxSegment) instead of being regrown, so a
// session's rows cost their own bytes once, a one-row session pays for a
// handful of slots, and a slot, once published, is never written again —
// which is what lets readers keep views of the log for as long as they like.

import (
	"sync"

	"scsq/internal/sqep"
)

// Segment capacities, in elements: the first segment is sized for the
// sessions that return a count or a handful of rows, each later one doubles
// up to maxSegment. 512 elements are 20 kB, the largest doubling that Go
// still allocates as a small object (≤ 32 kB, from the P's own cache);
// 1 024 would take whole pages from the shared heap per segment, which
// measured +2 MB of peak RSS on 2 000-row sessions and wastes twice as much
// behind the last row.
const (
	firstSegment = 4
	maxSegment   = 512
)

// segment is one fixed-capacity piece of a result log. els never
// reallocates: its length is the published part, its capacity the segment's
// size. next is set once, when the segment is full.
type segment struct {
	els  []sqep.Element
	next *segment
}

// resultsState is the shared result log of one session.
type resultsState struct {
	mu   sync.Mutex
	cond *sync.Cond
	head segment  // the first segment; its storage comes with the first element
	tail *segment // the segment pushResult writes into
	end  bool
}

// results lazily initializes and returns the session's log. The sync.Once
// keeps initialization safe from any goroutine (submitters, the run loop,
// iterator readers).
func (q *Query) results() *resultsState {
	q.resOnce.Do(func() {
		q.res = &resultsState{}
		q.res.cond = sync.NewCond(&q.res.mu)
		q.res.tail = &q.res.head
	})
	return q.res
}

// pushResult publishes one element and wakes the iterators blocked on the
// log's end (with none waiting, Broadcast is two atomic loads). Called
// synchronously from the client stream's drain loop.
func (q *Query) pushResult(el sqep.Element) {
	r := q.results()
	r.mu.Lock()
	t := r.tail
	if len(t.els) == cap(t.els) {
		if cap(t.els) == 0 {
			t.els = make([]sqep.Element, 0, firstSegment)
		} else {
			t.next = &segment{els: make([]sqep.Element, 0, min(2*cap(t.els), maxSegment))}
			t, r.tail = t.next, t.next
		}
	}
	t.els = append(t.els, el) // within capacity: no element moves
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

// flatten returns the whole log as one exact-size slice of the caller's own
// (nil for an empty log).
func (r *resultsState) flatten() []sqep.Element {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for s := &r.head; s != nil; s = s.next {
		n += len(s.els)
	}
	if n == 0 {
		return nil
	}
	out := make([]sqep.Element, 0, n)
	for s := &r.head; s != nil; s = s.next {
		out = append(out, s.els...)
	}
	return out
}

// ResultIter iterates a session's result elements incrementally: Next
// returns each element as soon as the simulation delivers it to the client
// manager, then reports the end of the stream once the session is terminal.
// Iterators are independent — each starts from the first element — and one
// iterator must not be shared between goroutines.
type ResultIter struct {
	q   *Query
	seg *segment // the segment the iterator stands in
	off int      // elements of seg already returned
}

// Results returns a new incremental iterator over the session's result
// elements. It may be called in any state; elements logged before the
// call are replayed first.
func (q *Query) Results() *ResultIter {
	return &ResultIter{q: q, seg: &q.results().head}
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

// NextBatch blocks like Next and then returns, under one lock, the elements
// published past the iterator's position in the segment it stands in — at
// least one, at most a segment. The batch is a read-only view of the
// session's result log, valid for as long as the caller likes: a published
// slot is never rewritten. When the log is exhausted the next call blocks,
// which is the serving layer's cue to flush.
func (it *ResultIter) NextBatch() ([]sqep.Element, bool, error) {
	return it.next(-1)
}

// next returns up to limit published elements of the current segment (all of
// them when limit is negative), blocking while there is none and the stream
// has not ended.
func (it *ResultIter) next(limit int) ([]sqep.Element, bool, error) {
	r := it.q.results()
	r.mu.Lock()
	for it.off == len(it.seg.els) {
		switch {
		case it.seg.next != nil: // only a full segment has a successor
			it.seg, it.off = it.seg.next, 0
		case r.end:
			r.mu.Unlock()
			return nil, false, it.q.Err()
		default:
			r.cond.Wait()
		}
	}
	end := len(it.seg.els)
	if limit >= 0 && it.off+limit < end {
		end = it.off + limit
	}
	// Slots below end are published and therefore immutable; the capped
	// slice keeps a caller's append off the segment's unwritten tail.
	els := it.seg.els[it.off:end:end]
	r.mu.Unlock()
	it.off = end
	return els, true, nil
}
