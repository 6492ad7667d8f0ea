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
// The drain lends each value (sqep.Borrowed), so the log copies what it keeps:
// an array into a clone, a scalar from 256 up into its segment's word for it.

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"scsq/internal/marshal"
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
// size. words[i] holds els[i]'s scalar from 256 up (words is made at the
// first); next is set once, when the segment is full.
type segment struct {
	els   []sqep.Element
	words []uint64
	next  *segment
}

// segmentPool is a scheduler's bounded free list of read segments, one list
// per size (4, 8, … 512), like the server's chunk pool.
type segmentPool struct {
	mu   sync.Mutex
	free [8][]*segment
}

func sizeClass(size int) int { return bits.Len(uint(size/firstSegment)) - 1 }

func (p *segmentPool) get(size int) *segment {
	p.mu.Lock()
	defer p.mu.Unlock()
	if free := &p.free[sizeClass(size)]; len(*free) > 0 {
		s := (*free)[len(*free)-1]
		(*free)[len(*free)-1] = nil // the list pins no segment it has handed out
		*free = (*free)[:len(*free)-1]
		return s
	}
	return &segment{els: make([]sqep.Element, 0, size)}
}

// put clears s, so that it pins no row's value, and keeps it if there is room.
func (p *segmentPool) put(s *segment) {
	clear(s.els)
	*s = segment{els: s.els[:0], words: s.words}
	p.mu.Lock()
	defer p.mu.Unlock()
	if free := &p.free[sizeClass(cap(s.els))]; len(*free) < maxFreeSegments {
		*free = append(*free, s)
	}
}

// resultsState is the result log of one session.
type resultsState struct {
	mu   sync.Mutex
	cond sync.Cond
	head *segment // the segment the reader stands in; nil until the first element
	off  int      // elements of head already read
	tail *segment // the segment pushResult writes into
	end  bool
}

// initResults ties q's log to its lock before q is published. Every log
// takes its segments from, and returns them to, its scheduler's free list.
func (q *Query) initResults() { q.res.cond.L = &q.res.mu }

// pushResult publishes a copy of one lent element, synchronously in the drain
// loop, and wakes a blocked reader (with none, Broadcast is two atomic loads).
func (q *Query) pushResult(el sqep.Element) {
	var bits uint64
	switch v := el.Value.(type) {
	case int64:
		bits = uint64(v)
	case float64:
		bits = math.Float64bits(v)
	case []float64:
		el.Value = slices.Clone(v)
	}
	r := &q.res
	r.mu.Lock()
	switch t := r.tail; {
	case t == nil:
		r.head = q.s.segments.get(firstSegment)
		r.tail = r.head
	case len(t.els) == cap(t.els):
		t.next = q.s.segments.get(min(2*cap(t.els), maxSegment))
		r.tail = t.next
	}
	if t := r.tail; bits >= 256 { // below, the runtime's static boxes
		if t.words == nil {
			t.words = make([]uint64, cap(t.els))
		}
		t.words[len(t.els)] = bits
		el.Value = marshal.Word(el.Value, &t.words[len(t.els)])
	}
	r.tail.els = append(r.tail.els, el) // within capacity: no element moves
	r.mu.Unlock()
	r.cond.Broadcast()
}

// endResults marks the stream complete and wakes a blocked reader; every
// finalization path calls it immediately before q.done closes.
func (q *Query) endResults() {
	r := &q.res
	r.mu.Lock()
	r.end = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// NextBatch blocks until another element is available or the session
// reaches a terminal state, and then takes, under one lock, the unread
// elements of the log's head segment: a read-only view whose elements and
// scalar values are valid until the next read of the session, which hands a
// segment it has passed to the free list. ok is false
// at the end of the stream, in which case err is the session's terminal
// error (nil for Done). When the log is exhausted the next call blocks,
// which is the serving layer's cue to flush.
func (q *Query) NextBatch() ([]sqep.Element, bool, error) {
	r := &q.res
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.head == nil || r.off == len(r.head.els) {
		switch {
		case r.head != nil && r.head.next != nil: // only a full segment has a successor
			passed := r.head
			r.head, r.off = passed.next, 0
			q.s.segments.put(passed)
		case r.end:
			if r.head != nil {
				q.s.segments.put(r.head)
				r.head, r.tail = nil, nil
			}
			return nil, false, q.Err()
		default:
			r.cond.Wait()
		}
	}
	end := len(r.head.els)
	els := r.head.els[r.off:end:end] // capped: an append cannot reach the segment
	r.off = end
	return els, true, nil
}
