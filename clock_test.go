package scsq

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"scsq/internal/catalog"
	"scsq/internal/scsql"
)

// The scheduler's policy clock runs on the engine's own progress: every test
// here goes through the public API and none ticks the clock by hand. A run
// TTL counts a session's progress from its own first element, whatever ran
// before it, on whichever nodes, across Reset.

// figure5On is Figure 5 with the counter on BG node counter and the
// generator on node gen.
func figure5On(counter, gen, size, count int) string {
	return fmt.Sprintf(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', %d)
and   a=sp(gen_array(%d,%d), 'bg', %d);`, counter, size, count, gen)
}

// wantExpired waits for s and requires it to have ended SessionExpired with
// ErrDeadlineExceeded.
func wantExpired(t *testing.T, s *Session) {
	t.Helper()
	if _, err := s.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("%s: err = %v, want ErrDeadlineExceeded", s.ID(), err)
	}
	if st := s.State(); st != SessionExpired {
		t.Fatalf("%s: state = %v, want expired", s.ID(), st)
	}
	if n := s.Nodes(); n != 0 {
		t.Fatalf("%s: expired session still holds %d nodes", s.ID(), n)
	}
}

// submitExpiring submits the paper's 2.3 s Figure 5 point (200 × 300 kB)
// with a 1 ms run TTL, on the given counter and generator nodes.
func submitExpiring(t *testing.T, eng *Engine, counter, gen int) *Session {
	t.Helper()
	s, err := eng.Submit(figure5On(counter, gen, 300_000, 200), WithRunTTL(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunTTLExpiresFigure5(t *testing.T) {
	eng := newEngine(t)
	wantExpired(t, submitExpiring(t, eng, 0, 1))
}

func TestRunTTLExpiresAfterReset(t *testing.T) {
	eng := newEngine(t)
	stream, err := eng.Query(scsql.Figure5Query(300_000, 200))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.One(); err != nil {
		t.Fatal(err)
	}
	if mk := stream.Makespan(); mk < 2*time.Second {
		t.Fatalf("first statement ran %v, want the 2.3 s point", mk)
	}
	if err := eng.Reset(); err != nil {
		t.Fatal(err)
	}
	wantExpired(t, submitExpiring(t, eng, 0, 1))
}

func TestRunTTLExpiresOnIdleNodes(t *testing.T) {
	eng := newEngine(t)
	first, err := eng.Submit(figure5On(0, 1, 300_000, 200))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(); err != nil || first.State() != SessionDone {
		t.Fatalf("first session: %v, %v", first.State(), err)
	}
	wantExpired(t, submitExpiring(t, eng, 2, 3))
}

func TestQueueTTLExpiresBehindRunningHog(t *testing.T) {
	eng := newEngine(t)
	// Both are submitted at one kernel instant: the victim queues before the
	// hog makes any progress, however fast the host runs the hog.
	kernel := eng.core.Env().Kernel()
	kernel.Pause()
	hog, err := eng.Submit(scsql.Figure5Query(300_000, 200))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := eng.Submit(scsql.Figure5Query(30_000, 2), WithQueueTTL(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	kernel.Resume()
	wantExpired(t, victim)
	if _, err := hog.Wait(); err != nil || hog.State() != SessionDone {
		t.Fatalf("hog: %v, %v; want done", hog.State(), err)
	}
}

func TestLiveSysSessionsStreamGrows(t *testing.T) {
	eng := newEngine(t)
	live, err := eng.Submit(`select streamof(sys_sessions());`)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(chan catalog.Tuple)
	done := make(chan struct{})
	t.Cleanup(func() { close(done) }) // before newEngine's Close ends the stream
	go func() {
		it := live.Results()
		for {
			el, ok, _ := it.Next()
			if !ok {
				close(rows)
				return
			}
			select {
			case rows <- el.Value.(catalog.Tuple):
			case <-done:
				return
			}
		}
	}()
	want := map[any]bool{}
	for i := 0; i < 3; i++ {
		s, err := eng.Submit(scsql.Figure5Query(300_000, 20))
		if err != nil {
			t.Fatal(err)
		}
		want[s.ID()] = true
	}
	seen := map[any]bool{}
	aged := false
	timeout := time.After(20 * time.Second)
	for len(seen) < len(want) || !aged {
		select {
		case row, ok := <-rows:
			if !ok {
				t.Fatal("live sys_sessions stream ended")
			}
			id, _ := row.Field("id")
			state, _ := row.Field("state")
			age, _ := row.Field("age_ns")
			if want[id] {
				seen[id] = true
				aged = aged || (state == "running" && age.(int64) > 0)
			}
		case <-timeout:
			t.Fatalf("live sys_sessions stream saw %d of %d later sessions (a running one aged: %v)", len(seen), len(want), aged)
		}
	}
}

// TestCancelLiveStreamInAProcess: a live stream inside a stream process
// parks on its tick, a channel only the policy clock sends on. Cancelling
// its session on an otherwise idle engine — nothing else moves the clock —
// must still end the process, and Wait return.
func TestCancelLiveStreamInAProcess(t *testing.T) {
	eng := newEngine(t)
	live, err := eng.Submit(`select extract(a) from sp a where a=sp(count(streamof(sys_rps())), 'bg', 0);`)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the stream process has polled once and parks on its tick.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rows, err := eng.Query(`select sys_rps();`)
		if err != nil {
			t.Fatal(err)
		}
		els, err := rows.Drain()
		if err != nil {
			t.Fatal(err)
		}
		parked := false
		for _, el := range els {
			row := el.Value.(catalog.Tuple)
			q, _ := row.Field("query")
			st, _ := row.Field("state")
			parked = parked || q == live.ID() && st == "tick"
		}
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the stream process never parked on its tick: %v", els)
		}
	}
	if err := live.Cancel(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		live.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after Cancel: the process parked on its tick was never woken")
	}
	if st := live.State(); st != SessionCancelled {
		t.Errorf("session ended %v, want cancelled", st)
	}
}
