package scsq

import (
	"testing"
	"time"

	"scsq/internal/catalog"
	"scsq/internal/scsql"
)

// The scheduler's policy clock runs on the engine's own progress: every test
// here goes through the public API and none ticks the clock by hand. It dates
// sys_sessions' age_ns and paces the live streamof(sys_*) streams.

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
		for {
			b, ok, _ := live.NextBatch()
			if !ok {
				close(rows)
				return
			}
			for i := range b.Len() {
				select {
				case rows <- b.At(i).Value.(catalog.Tuple):
				case <-done:
					return
				}
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
