package sched

// results.go is a session's result log: the client manager's drain pushes
// each element as it arrives (core.ClientStream.SetElementObserver), and the
// session's one reader — the serving pump, Wait — takes it off as it comes.
// The log is a linked list of segments, each element written once into the
// tail and never moved: a full tail gets a successor of twice its capacity
// (up to maxSegment), so rows cost their own bytes once and a one-row session
// a handful of slots. A segment the reader has passed, and the last one once
// the stream has ended, goes to the scheduler's free list, where every
// session takes its next segment from: live memory is the unread rows.

import (
	"math/bits"
	"sync"

	"scsq/internal/sqep"
)

// Segment capacities, in elements: 4 for the sessions that return a count or
// a handful of rows, doubling up to 512 (20 kB), the largest that Go still
// allocates as a small object — 1 024 measured +2 MB of peak RSS on 2 000-row
// sessions. maxFreeSegments bounds each size's free list: at most 16 × 40 kB
// of segments kept.
const (
	firstSegment    = 4
	maxSegment      = 512
	maxFreeSegments = 16
)

// segment is one fixed-capacity piece of a result log. els never
// reallocates: its length is the published part, its capacity the segment's
// size. next is set once, when the segment is full.
type segment struct {
	els  []sqep.Element
	next *segment
}

// segmentPool is a scheduler's bounded free list of read segments, one list
// per size (4, 8, … 512), like the server's chunk pool. A nil pool (a Query
// without a scheduler) allocates every segment and keeps none.
type segmentPool struct {
	mu   sync.Mutex
	free [8][]*segment
}

func sizeClass(size int) int { return bits.Len(uint(size/firstSegment)) - 1 }

func (p *segmentPool) get(size int) *segment {
	if p != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if free := &p.free[sizeClass(size)]; len(*free) > 0 {
			s := (*free)[len(*free)-1]
			(*free)[len(*free)-1] = nil // the list pins no segment it has handed out
			*free = (*free)[:len(*free)-1]
			return s
		}
	}
	return &segment{els: make([]sqep.Element, 0, size)}
}

// put clears s, so that it pins no row's value, and keeps it if there is room.
func (p *segmentPool) put(s *segment) {
	if p != nil {
		clear(s.els)
		*s = segment{els: s.els[:0]}
		p.mu.Lock()
		defer p.mu.Unlock()
		if free := &p.free[sizeClass(cap(s.els))]; len(*free) < maxFreeSegments {
			*free = append(*free, s)
		}
	}
}

// resultsState is the result log of one session.
type resultsState struct {
	mu   sync.Mutex
	cond *sync.Cond
	head *segment // the segment the reader stands in; nil until the first element
	off  int      // elements of head already read
	tail *segment // the segment pushResult writes into
	end  bool
	pool *segmentPool
}

// results lazily initializes and returns the session's log, safely from any
// goroutine (submitters, the run loop, the reader).
func (q *Query) results() *resultsState {
	q.resOnce.Do(func() {
		q.res = &resultsState{}
		q.res.cond = sync.NewCond(&q.res.mu)
		if q.s != nil {
			q.res.pool = &q.s.segments
		}
	})
	return q.res
}

// pushResult publishes one element and wakes a blocked reader (with none,
// Broadcast is two atomic loads). The drain loop calls it synchronously.
func (q *Query) pushResult(el sqep.Element) {
	r := q.results()
	r.mu.Lock()
	switch t := r.tail; {
	case t == nil:
		r.head = r.pool.get(firstSegment)
		r.tail = r.head
	case len(t.els) == cap(t.els):
		t.next = r.pool.get(min(2*cap(t.els), maxSegment))
		r.tail = t.next
	}
	r.tail.els = append(r.tail.els, el) // within capacity: no element moves
	r.mu.Unlock()
	r.cond.Broadcast()
}

// endResults marks the stream complete and wakes a blocked reader; every
// finalization path calls it immediately before q.done closes.
func (q *Query) endResults() {
	r := q.results()
	r.mu.Lock()
	r.end = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// read takes up to limit (all if negative) unread elements of the head
// segment off the log, blocking while there is none and the stream is live.
// A segment the previous read emptied goes to the free list.
func (q *Query) read(limit int) ([]sqep.Element, bool, error) {
	r := q.results()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.head == nil || r.off == len(r.head.els) {
		switch {
		case r.head != nil && r.head.next != nil: // only a full segment has a successor
			passed := r.head
			r.head, r.off = passed.next, 0
			r.pool.put(passed)
		case r.end:
			if r.head != nil {
				r.pool.put(r.head)
				r.head, r.tail = nil, nil
			}
			return nil, false, q.Err()
		default:
			r.cond.Wait()
		}
	}
	end := len(r.head.els)
	if limit >= 0 && r.off+limit < end {
		end = r.off + limit
	}
	els := r.head.els[r.off:end:end] // capped: an append cannot reach the segment
	r.off = end
	return els, true, nil
}

// Next blocks until another element is available or the session reaches a
// terminal state, and takes it off the log. ok is false at the end of the
// stream, in which case err is the session's terminal error (nil for Done).
func (q *Query) Next() (sqep.Element, bool, error) {
	els, ok, err := q.read(1)
	if !ok {
		return sqep.Element{}, false, err
	}
	return els[0], true, nil
}

// NextBatch blocks like Next and then takes, under one lock, the unread
// elements of the log's head segment: a read-only view, valid until the next
// read of the session. When the log is exhausted the next call blocks, which
// is the serving layer's cue to flush.
func (q *Query) NextBatch() ([]sqep.Element, bool, error) {
	return q.read(-1)
}
