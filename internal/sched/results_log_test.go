package sched

// The result log against a bare Query: pushResult, endResults and the
// reads need nothing of a scheduler but its free list, so these tests
// drive them directly and can count what pushResult itself allocates.

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"scsq/internal/marshal"
	"scsq/internal/race"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// pooledQuery is a session of s, whose free list its log shares.
func pooledQuery(s *Scheduler) *Query {
	q := &Query{s: s, done: make(chan struct{})}
	q.initResults()
	return q
}

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

// lentEl is element i of a sequence as a borrowing drain hands it over: a
// small int, then an int64 and a float64 from 256 up and an array, each of
// the last three lent by l, which the next one overwrites.
func lentEl(l *marshal.Loan, i int) sqep.Element {
	el := ownEl(i)
	if i%4 != 0 {
		buf, _ := marshal.Append(nil, el.Value)
		el.Value, _, _ = l.Decode(buf)
	}
	return el
}

// ownEl is element i of lentEl's sequence as a reader must see it.
func ownEl(i int) sqep.Element {
	el := logEl(i)
	switch i % 4 {
	case 1:
		el.Value = int64(256 + i)
	case 2:
		el.Value = float64(i) + 0.5
	case 3:
		el.Value = []float64{float64(i), -1}
	}
	return el
}

func sameEl(a, b sqep.Element) bool {
	return reflect.DeepEqual(a.Value, b.Value) && a.At == b.At && a.Src == b.Src
}

// pushBytes pushes rows elements el(i) into a fresh log and returns the bytes
// allocated meanwhile. The allocation counters are the process's: another
// goroutine of the test binary that allocates meanwhile (an earlier test's
// engine winding down) would count as the log's. The pushes run alone on
// one P, and the least of five readings is taken.
func pushBytes(rows int, el func(int) sqep.Element) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		q := pooledQuery(&Scheduler{}) // nothing is read, so nothing recycles
		var before, after runtime.MemStats
		procs := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&before)
		for i := 0; i < rows; i++ {
			q.pushResult(el(i))
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
// session breaks the second. Lent scalars from 256 up cost the log one word
// each, in the segment's words, and nothing else: one heap box per row
// breaks the third.
func TestResultLogNeverRegrows(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rows = 100_000
	elSize := uint64(unsafe.Sizeof(sqep.Element{}))
	if got, limit := pushBytes(rows, logEl), rows*elSize*115/100; got > limit {
		t.Errorf("%d rows allocated %d bytes in pushResult, want at most %d (1.15 × %d × %d)",
			rows, got, limit, rows, elSize)
	}
	if got := pushBytes(1, logEl); got > 512 {
		t.Errorf("a one-row session allocated %d bytes in pushResult, want at most 512", got)
	}
	var loan marshal.Loan
	lent := func(i int) sqep.Element { return sqep.Element{Value: loan.Int(int64(256 + i))} }
	if got, limit := pushBytes(rows, lent), rows*(elSize+8)*115/100; got > limit {
		t.Errorf("%d rows of lent int64s allocated %d bytes in pushResult, want at most %d (1.15 × %d × (%d + 8))",
			rows, got, limit, rows, elSize)
	}
}

// TestBatchStaysValid: a Batch is a view of the log, intact until the next
// read of the session — later pushes, into the very segment the batch views,
// leave it element for element as it was, and an append to it cannot reach
// the log. Wait then returns the rows no read has taken, and they stay as
// they were when the next session takes the recycled segments. The drain
// lends every scalar from 256 up and every array in storage it overwrites
// at the next element (lentEl): a log that keeps what it is lent fails.
func TestBatchStaysValid(t *testing.T) {
	s := &Scheduler{}
	q := pooledQuery(s)
	var loan marshal.Loan
	const early = 7 // ends inside the second segment
	for i := 0; i < early; i++ {
		q.pushResult(lentEl(&loan, i))
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
	check := func(when string, els []sqep.Element, from int) {
		t.Helper()
		for i, el := range els {
			if want := ownEl(from + i); !sameEl(el, want) {
				t.Fatalf("%s: element %d = %+v, want %+v", when, from+i, el, want)
			}
		}
	}
	check("the batch at once", b, firstSegment)
	for i := early; i < early+10_000; i++ {
		q.pushResult(lentEl(&loan, i))
	}
	check("the batch after 10 000 later pushes", b, firstSegment)
	q.finish(nil)
	check("the batch after the session ended", b, firstSegment)
	els, err := q.Wait()
	if err != nil || len(els) != 10_000 {
		t.Fatalf("Wait = %d elements, %v; want the 10 000 unread", len(els), err)
	}
	check("Wait", els, early)
	next := pooledQuery(s)
	for i := 0; i < 10_000; i++ {
		next.pushResult(sqep.Element{Value: loan.Int(-1 - int64(i))}) // a word in every slot
	}
	check("Wait after the next session took its segments", els, early)
}

// TestOneReaderRacesTheDrain: one reader races the drain on a log whose
// segments, and the words that hold the scalars the drain lends, are
// recycled as it reads. It must see every row once and in order, then the
// terminal error — again on a read past the end — and Wait finds nothing
// left.
func TestOneReaderRacesTheDrain(t *testing.T) {
	const rows = 30_000
	errBoom := errors.New("boom")
	q := pooledQuery(&Scheduler{})
	go func() {
		var loan marshal.Loan
		for i := 0; i < rows; i++ {
			q.pushResult(lentEl(&loan, i))
			if i%64 == 0 {
				runtime.Gosched() // let the reader park and catch up in turns
			}
		}
		q.finish(errBoom)
	}()
	for n := 0; ; {
		els, ok, err := q.NextBatch()
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
			if !sameEl(el, ownEl(n)) {
				t.Fatalf("element %d = %+v, want %+v", n, el, ownEl(n))
			}
			n++
		}
	}
	if _, ok, err := q.NextBatch(); ok || !errors.Is(err, errBoom) {
		t.Fatalf("a second read past the end: ok=%v err=%v", ok, err)
	}
	if els, err := q.Wait(); len(els) != 0 || !errors.Is(err, errBoom) {
		t.Fatalf("Wait after the reader = %d elements, %v; want none and the terminal error", len(els), err)
	}
}

// segments counts the segments q's log holds.
func (q *Query) segments() int {
	r := &q.res
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
	first := q.res.head
	if b, ok, err := q.NextBatch(); !ok || err != nil || len(b) != firstSegment {
		t.Fatalf("NextBatch = %d elements, ok=%v err=%v", len(b), ok, err)
	}
	if _, ok, err := q.NextBatch(); !ok || err != nil { // passes the first segment
		t.Fatalf("second NextBatch: ok=%v err=%v", ok, err)
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
	if next.res.head != first || len(s.segments.free[0]) != 0 {
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
