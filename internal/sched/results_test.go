package sched_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"scsq/internal/core"
	"scsq/internal/sched"
)

// TestResultsPartialBeforeCompletion proves the incremental contract the
// serving layer depends on: elements of a live session are readable through
// NextBatch strictly before the session reaches a terminal state. A
// streamof(sys_sessions()) live-delta stream never terminates on its own,
// so observing even one element while State() is non-final is a
// deterministic assertion, not a race.
func TestResultsPartialBeforeCompletion(t *testing.T) {
	e, err := core.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := sched.New(e, nil)
	defer s.Close()

	q, err := s.Submit(`select streamof(sys_sessions());`)
	if err != nil {
		t.Fatal(err)
	}
	b, ok, err := q.NextBatch()
	if err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v, want a first element", ok, err)
	}
	if b[0].Value == nil {
		t.Fatalf("first element has no value")
	}
	if st := q.State(); st.Final() {
		t.Fatalf("session already %v after first element; partial results must precede completion", st)
	}

	// The live stream ends only through cancellation; a read must
	// then unblock with the terminal error.
	if err := q.Cancel(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	for {
		_, ok, err := q.NextBatch()
		if ok {
			continue // deltas raced the cancel; keep draining
		}
		if !errors.Is(err, sched.ErrCancelled) {
			t.Fatalf("terminal error = %v, want ErrCancelled", err)
		}
		break
	}
	if _, err := q.Wait(); !errors.Is(err, sched.ErrCancelled) {
		t.Fatalf("Wait error = %v, want ErrCancelled", err)
	}
}

// TestResultsMatchWait proves that NextBatch and Wait share one read of an
// ordinary finite query's stream: Wait returns what NextBatch has not
// taken, in order, and afterwards nothing is left to read.
func TestResultsMatchWait(t *testing.T) {
	e, err := core.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := sched.New(e, nil)
	defer s.Close()

	q, err := s.Submit(`select extract(a) from sp a where a=sp(gen_array(256, 8), 'bg', 0);`)
	if err != nil {
		t.Fatal(err)
	}
	b, ok, err := q.NextBatch()
	if err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
	}
	els := slices.Clone(b) // the batch is valid until the next read
	rest, err := q.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if els = append(els, rest...); len(els) != 8 {
		t.Fatalf("NextBatch and Wait returned %d + %d elements, want 8", len(b), len(rest))
	}
	for i := 1; i < len(els); i++ {
		if els[i].At < els[i-1].At {
			t.Fatalf("element %d at %v precedes element %d at %v", i, els[i].At, i-1, els[i-1].At)
		}
	}
	if _, ok, err := q.NextBatch(); ok || err != nil {
		t.Fatalf("a read after Wait: ok=%v err=%v, want a clean end", ok, err)
	}
	if again, err := q.Wait(); len(again) != 0 || err != nil {
		t.Fatalf("a second Wait = %d elements, %v; want none", len(again), err)
	}
}

// TestResultsEndWithoutRunning proves reads of sessions that never ran
// (definitions, failed builds) unblock promptly with the terminal outcome.
// The queued-expiry path is covered via Wait — itself a reader of the log — in
// TestQueueDeadlineExpiresQueuedSession.
func TestResultsEndWithoutRunning(t *testing.T) {
	e, err := core.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := sched.New(e, nil)
	defer s.Close()

	// A definition session is Done at submit; its stream is empty.
	def, err := s.Submit(`create function f() -> stream as select extract(a) from sp a where a=sp(gen_array(8,1),'bg',0);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := def.NextBatch(); ok || err != nil {
		t.Fatalf("definition read: ok=%v err=%v, want empty clean end", ok, err)
	}

	// A session whose build fails (allocation out of range) finalizes via
	// finishQueued; a read must unblock with the build error.
	bad, err := s.Submit(`select count(extract(a)) from sp a where a=sp(gen_array(8, 1), 'bg', 99);`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := bad.NextBatch()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("failed-build read ended without the build error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read of a failed-build session never unblocked")
	}
	if st := bad.State(); st != sched.Failed {
		t.Fatalf("state = %v, want Failed", st)
	}
}
