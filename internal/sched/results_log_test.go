package sched

// The result log against a bare Query: pushResult, endResults and the
// reads need nothing of a scheduler but its free list, so these tests
// drive them directly and can count what pushResult itself allocates.

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"scsq/internal/race"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// logQuery is a session as far as the result log is concerned; it has no
// scheduler, so its log allocates every segment and recycles none.
func logQuery() *Query { return &Query{done: make(chan struct{})} }

// pooledQuery is a session of s, whose free list its log shares.
func pooledQuery(s *Scheduler) *Query { return &Query{s: s, done: make(chan struct{})} }

// finish ends q's stream the way Scheduler.finalize does.
func (q *Query) finish(err error) {
	q.mu.Lock()
	q.err = err
	q.mu.Unlock()
	q.endResults()
	close(q.done)
}

// logEl is element i of every test sequence. Small ints box without
// allocating, so the bytes a test counts are the log's own.
func logEl(i int) sqep.Element {
	return sqep.Element{Value: i % 200, At: vtime.Time(i), Src: "s"}
}

func sameEl(a, b sqep.Element) bool {
	return a.Value == b.Value && a.At == b.At && a.Src == b.Src
}

// pushBytes pushes rows elements into a fresh log and returns the bytes
// allocated meanwhile. The allocation counters are the process's: another
// goroutine of the test binary that allocates meanwhile (an earlier test's
// engine winding down) would count as the log's. The pushes run alone on
// one P, and the least of five readings is taken.
func pushBytes(rows int) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		q := logQuery()
		q.results() // the log's fixed part is not the rows' cost
		var before, after runtime.MemStats
		procs := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&before)
		for i := 0; i < rows; i++ {
			q.pushResult(logEl(i))
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		runtime.KeepAlive(q)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestResultLogNeverRegrows: a session's rows cost their own bytes once. Any
// regrowth copy of the log — append doubling one slice spends three times
// the rows' size — breaks the first bound; a first segment sized for a big
// session breaks the second.
func TestResultLogNeverRegrows(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rows = 100_000
	elSize := uint64(unsafe.Sizeof(sqep.Element{}))
	if got, limit := pushBytes(rows), rows*elSize*115/100; got > limit {
		t.Errorf("%d rows allocated %d bytes in pushResult, want at most %d (1.15 × %d × %d)",
			rows, got, limit, rows, elSize)
	}
	if got := pushBytes(1); got > 512 {
		t.Errorf("a one-row session allocated %d bytes in pushResult, want at most 512", got)
	}
}

// TestBatchStaysValid: a Batch is a view of the log, intact until the next
// read of the session — later pushes, into the very segment the batch views,
// leave it element for element as it was, and an append to it cannot reach
// the log. Wait then returns the rows no read has taken.
func TestBatchStaysValid(t *testing.T) {
	q := pooledQuery(&Scheduler{})
	const early = 7 // ends inside the second segment
	for i := 0; i < early; i++ {
		q.pushResult(logEl(i))
	}
	if b, ok, err := q.NextBatch(); !ok || err != nil || len(b) != firstSegment {
		t.Fatalf("first NextBatch = %d elements, ok=%v err=%v; want the first segment's %d", len(b), ok, err, firstSegment)
	}
	b, ok, err := q.NextBatch()
	if !ok || err != nil || len(b) != early-firstSegment {
		t.Fatalf("second NextBatch = %d elements, ok=%v err=%v; want %d", len(b), ok, err, early-firstSegment)
	}
	// A caller's append must reallocate, not write into the segment's tail.
	if cap(b) != len(b) {
		t.Fatalf("the batch has room for %d more: an append would write into the log", cap(b)-len(b))
	}
	check := func(when string) {
		t.Helper()
		for i, el := range b {
			if want := logEl(firstSegment + i); !sameEl(el, want) {
				t.Fatalf("%s: batch element %d = %+v, want %+v", when, i, el, want)
			}
		}
	}
	check("at once")
	for i := early; i < early+10_000; i++ {
		q.pushResult(logEl(i))
	}
	check("after 10 000 later pushes")
	q.finish(nil)
	check("after the session ended")
	els, err := q.Wait()
	if err != nil || len(els) != 10_000 {
		t.Fatalf("Wait = %d elements, %v; want the 10 000 unread", len(els), err)
	}
	for i, el := range els {
		if want := logEl(early + i); !sameEl(el, want) {
			t.Fatalf("Wait element %d = %+v, want %+v", i, el, want)
		}
	}
}

// TestOneReaderRacesTheDrain: one reader, mixing Next and NextBatch, races
// the drain on a log whose segments are recycled as it reads. It must see
// every row once and in order, then the terminal error — again on a read
// past the end — and Wait finds nothing left.
func TestOneReaderRacesTheDrain(t *testing.T) {
	const rows = 30_000
	errBoom := errors.New("boom")
	q := pooledQuery(&Scheduler{})
	go func() {
		for i := 0; i < rows; i++ {
			q.pushResult(logEl(i))
			if i%64 == 0 {
				runtime.Gosched() // let the reader park and catch up in turns
			}
		}
		q.finish(errBoom)
	}()
	for n := 0; ; {
		var els []sqep.Element
		var ok bool
		var err error
		if n%3 == 0 {
			var el sqep.Element
			el, ok, err = q.Next()
			els = []sqep.Element{el}
		} else {
			els, ok, err = q.NextBatch()
		}
		if !ok {
			if n != rows || !errors.Is(err, errBoom) {
				t.Fatalf("stream ended after %d of %d elements with %v", n, rows, err)
			}
			break
		}
		if len(els) == 0 {
			t.Fatalf("empty batch at element %d", n)
		}
		for _, el := range els {
			if !sameEl(el, logEl(n)) {
				t.Fatalf("element %d = %+v, want %+v", n, el, logEl(n))
			}
			n++
		}
	}
	if _, ok, err := q.Next(); ok || !errors.Is(err, errBoom) {
		t.Fatalf("a second read past the end: ok=%v err=%v", ok, err)
	}
	if els, err := q.Wait(); len(els) != 0 || !errors.Is(err, errBoom) {
		t.Fatalf("Wait after the reader = %d elements, %v; want none and the terminal error", len(els), err)
	}
}

// segments counts the segments q's log holds.
func (q *Query) segments() int {
	r := q.results()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for s := r.head; s != nil; s = s.next {
		n++
	}
	return n
}

// TestLiveLogStaysBounded: a never-ending session read by a reader that keeps
// up holds its unread rows, not every row it ever produced.
func TestLiveLogStaysBounded(t *testing.T) {
	const rows, round = 100_000, 100
	q := pooledQuery(&Scheduler{})
	most, read := 0, 0
	for pushed := 0; pushed < rows; {
		for end := pushed + round; pushed < end; pushed++ {
			q.pushResult(logEl(pushed))
		}
		most = max(most, q.segments())
		for read < pushed {
			b, ok, err := q.NextBatch()
			if !ok || err != nil {
				t.Fatalf("NextBatch at row %d: ok=%v err=%v", read, ok, err)
			}
			for _, el := range b {
				if !sameEl(el, logEl(read)) {
					t.Fatalf("row %d = %+v, want %+v", read, el, logEl(read))
				}
				read++
			}
		}
	}
	// One round spans at most five segments (4 + 8 + 16 + 32 + 64 ≥ 100),
	// one more being the segment the reader stands in; the whole stream
	// is about 200.
	if most > 6 {
		t.Fatalf("the log held %d segments while its reader kept up with %d-row rounds, want at most 6", most, round)
	}
}

// probe is a row value whose collection closes the returned channel: a heap
// object of its own, since an int below 256 boxes into one of the runtime's
// static boxes and a boxed int may share a tiny block with live ones.
func probe() (any, <-chan struct{}) {
	v, collected := &[4]int64{256}, make(chan struct{})
	runtime.SetFinalizer(v, func(*[4]int64) { close(collected) })
	return v, collected
}

func awaitCollected(t *testing.T, collected <-chan struct{}, what string) {
	t.Helper()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
			if i == 500 {
				t.Fatal(what)
			}
		}
	}
}

// TestRecycledSegmentPinsNothing: a segment on the free list pins none of
// the rows it held, and a segment taken off the list is pinned by the list
// no more.
func TestRecycledSegmentPinsNothing(t *testing.T) {
	s := &Scheduler{}
	q := pooledQuery(s)
	v, collected := probe()
	q.pushResult(sqep.Element{Value: v})
	v = nil
	for i := 1; i <= firstSegment; i++ { // the rest of the first segment and one row past it
		q.pushResult(logEl(i))
	}
	first := q.results().head
	if b, ok, err := q.NextBatch(); !ok || err != nil || len(b) != firstSegment {
		t.Fatalf("NextBatch = %d elements, ok=%v err=%v", len(b), ok, err)
	}
	if _, ok, err := q.Next(); !ok || err != nil { // passes the first segment
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if !slices.Contains(s.segments.free[0], first) {
		t.Fatal("the segment the reader passed is not on the free list")
	}
	awaitCollected(t, collected, "a segment on the free list keeps a row's value alive")
	if len(s.segments.free[0]) != 1 {
		t.Fatalf("the free list lost the segment: %d of the first size", len(s.segments.free[0]))
	}

	// The next session takes the segment; once that session is dropped
	// unread, its row must not stay reachable through the list's old slot.
	next := pooledQuery(s)
	v, collected = probe()
	next.pushResult(sqep.Element{Value: v})
	v = nil
	if next.results().head != first || len(s.segments.free[0]) != 0 {
		t.Fatal("a new session did not take its first segment from the free list")
	}
	next, first = nil, nil
	awaitCollected(t, collected, "the free list still pins a segment it handed out")
	runtime.KeepAlive(q)
}

// TestFreeListBounded: however many sessions finish and are read, the free
// list keeps at most maxFreeSegments segments of each size.
func TestFreeListBounded(t *testing.T) {
	s := &Scheduler{}
	var qs []*Query
	for range 3 * maxFreeSegments {
		q := pooledQuery(s)
		for i := 0; i < 1020; i++ { // fills one segment of each size, 4 … 512
			q.pushResult(logEl(i))
		}
		q.finish(nil)
		qs = append(qs, q)
	}
	for _, q := range qs {
		if els, err := q.Wait(); len(els) != 1020 || err != nil {
			t.Fatalf("Wait = %d elements, %v", len(els), err)
		}
		for c, free := range s.segments.free {
			if len(free) > maxFreeSegments {
				t.Fatalf("%d segments of %d elements on the free list, want at most %d", len(free), firstSegment<<c, maxFreeSegments)
			}
		}
	}
	for c, free := range s.segments.free {
		if len(free) != maxFreeSegments {
			t.Errorf("%d segments of %d elements on the free list, want the bound, %d", len(free), firstSegment<<c, maxFreeSegments)
		}
	}
}
