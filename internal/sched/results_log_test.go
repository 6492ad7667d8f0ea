package sched

// The result log against a bare Query: pushResult, endResults and the
// iterators need nothing of a scheduler, so these tests drive them directly
// and can count what pushResult itself allocates.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"scsq/internal/race"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// logQuery is a session as far as the result log is concerned.
func logQuery() *Query { return &Query{done: make(chan struct{})} }

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
// allocated meanwhile.
func pushBytes(rows int) uint64 {
	q := logQuery()
	q.results() // the log's fixed part is not the rows' cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		q.pushResult(logEl(i))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(q)
	return after.TotalAlloc - before.TotalAlloc
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

// TestBatchStaysValid: a Batch is a view of the log, valid indefinitely —
// later pushes and the end of the session leave it element for element as it
// was, and an append to it cannot reach the log.
func TestBatchStaysValid(t *testing.T) {
	q := logQuery()
	const early = 7 // ends inside the second segment
	for i := 0; i < early; i++ {
		q.pushResult(logEl(i))
	}
	it := q.Results()
	var batches [][]sqep.Element
	var seen []sqep.Element
	for len(seen) < early {
		b, ok, err := it.NextBatch()
		if !ok || err != nil || len(b) == 0 {
			t.Fatalf("NextBatch after %d of %d early elements: %d elements, ok=%v err=%v", len(seen), early, len(b), ok, err)
		}
		batches = append(batches, b)
		seen = append(seen, b...)
	}
	check := func(when string) {
		t.Helper()
		i := 0
		for _, b := range batches {
			for _, el := range b {
				if !sameEl(el, logEl(i)) {
					t.Fatalf("%s: early batch element %d = %+v, want %+v", when, i, el, logEl(i))
				}
				i++
			}
		}
	}
	check("at once")
	// A caller's append must reallocate, not write into the segment's tail.
	last := batches[len(batches)-1]
	_ = append(last, sqep.Element{Value: "stray"})
	for i := early; i < early+10_000; i++ {
		q.pushResult(logEl(i))
	}
	check("after 10 000 later pushes")
	q.finish(nil)
	check("after the session ended")
	els, err := q.Wait()
	if err != nil || len(els) != early+10_000 {
		t.Fatalf("Wait = %d elements, %v", len(els), err)
	}
	for i, el := range els {
		if !sameEl(el, logEl(i)) {
			t.Fatalf("Wait element %d = %+v, want %+v: an append through a batch reached the log", i, el, logEl(i))
		}
	}
}

// TestIteratorsReplayIndependently races three iterators — opened before,
// during and after the run; reading by Next, by NextBatch and by both —
// against the drain. Each must see the identical sequence and then the
// terminal error, and so must Wait.
func TestIteratorsReplayIndependently(t *testing.T) {
	const rows = 30_000
	errBoom := errors.New("boom")
	q := logQuery()

	read := func(it *ResultIter, mode int) error {
		n := 0
		for {
			var els []sqep.Element
			var ok bool
			var err error
			if mode == 0 || (mode == 2 && n%3 == 0) {
				var el sqep.Element
				el, ok, err = it.Next()
				els = []sqep.Element{el}
			} else {
				els, ok, err = it.NextBatch()
			}
			if !ok {
				if n != rows || !errors.Is(err, errBoom) {
					return fmt.Errorf("mode %d: stream ended after %d of %d elements with %v", mode, n, rows, err)
				}
				if _, ok, err := it.Next(); ok || !errors.Is(err, errBoom) {
					return fmt.Errorf("mode %d: a second read past the end: ok=%v err=%v", mode, ok, err)
				}
				return nil
			}
			if len(els) == 0 {
				return fmt.Errorf("mode %d: empty batch at element %d", mode, n)
			}
			for _, el := range els {
				if !sameEl(el, logEl(n)) {
					return fmt.Errorf("mode %d: element %d = %+v, want %+v", mode, n, el, logEl(n))
				}
				n++
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	start := func(mode int) {
		it := q.Results()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- read(it, mode)
		}()
	}
	start(0) // before the first element
	half := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			if i == rows/2 {
				close(half)
			}
			q.pushResult(logEl(i))
			if i%64 == 0 {
				runtime.Gosched() // let readers park and catch up in turns
			}
		}
		q.finish(errBoom)
	}()
	<-half
	start(1) // during the run
	<-q.done
	start(2) // after the end
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	els, err := q.Wait()
	if !errors.Is(err, errBoom) || len(els) != rows || cap(els) != rows {
		t.Fatalf("Wait = %d elements (cap %d), %v; want %d exactly and the terminal error", len(els), cap(els), err, rows)
	}
	for i, el := range els {
		if !sameEl(el, logEl(i)) {
			t.Fatalf("Wait element %d = %+v, want %+v", i, el, logEl(i))
		}
	}
}
