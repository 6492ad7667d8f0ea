package scsq

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"scsq/internal/metrics"
	"scsq/internal/scsql"
)

// TestOutsidersReadInTurns: the resources' busy lists and owner tables and
// the data plane's metric cells have no lock but the kernel's token, so a
// caller that is no process reads them in a turn of its own. A Figure 5
// query with 1 kB buffers, about 6 000 frames, runs while one goroutine
// loops over the outsiders' reads — MetricsSnapshot, catalog reads through
// Exec, and the retirement of finished sessions, which folds their metrics
// and busy time. Under -race no read races a grant or a frame's tally, and
// the query reads the makespan and deterministic counters of a run with
// nobody reading.
func TestOutsidersReadInTurns(t *testing.T) {
	run := func(read bool) (time.Duration, metrics.Snapshot) {
		eng := newEngine(t, WithMPIBufferBytes(1000))
		ses, err := eng.Submit(scsql.Figure5Query(300_000, 20))
		if err != nil {
			t.Fatal(err)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		mid := 0
		go func() {
			defer close(done)
			if !read {
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if f := eng.MetricsSnapshot().SumCounters("link.frames."); f > 0 && f < 6003 {
					mid++
				}
				for _, stmt := range []string{`select sys_resources();`, `select sys_metrics();`} {
					st, err := eng.Query(stmt)
					if err == nil {
						_, err = st.Drain() // a catalog read retires as it ends
					}
					if err != nil {
						t.Errorf("%s: %v", stmt, err)
						return
					}
				}
				// A finished session leaves the table, and is retired, as it ends.
				if r, err := eng.Submit(`select count(sys_nodes());`); err != nil {
					t.Error(err)
					return
				} else if _, err := r.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		els, err := ses.Wait()
		close(stop)
		<-done
		if err != nil || len(els) != 1 || els[0].Value != int64(20) {
			t.Fatalf("read=%v: got %v, %v, want one count of 20", read, els, err)
		}
		// The readers' own sessions count in sched.*; nothing else of theirs
		// is deterministic.
		snap := eng.MetricsSnapshot().Deterministic()
		for name := range snap.Counters {
			if strings.HasPrefix(name, "sched.") {
				delete(snap.Counters, name)
			}
		}
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "sched.") {
				delete(snap.Gauges, name)
			}
		}
		t.Logf("read=%v: %d reads mid-run", read, mid)
		return ses.Makespan(), snap
	}
	bare, bareSnap := run(false)
	read, readSnap := run(true)
	if read != bare {
		t.Errorf("makespan with a reader %v, without %v", read, bare)
	}
	if !reflect.DeepEqual(readSnap, bareSnap) {
		t.Errorf("deterministic metrics differ with a reader:\n  with:    %v\n  without: %v", readSnap, bareSnap)
	}
}
