package server_test

// Chaos tests: many clients hammering one server with pipelined submits,
// cancels, pings and abrupt disconnects, seeded for reproducibility. Run
// under -race in CI (the `serve` job); the soak-style postcondition is
// zero leaked goroutines, zero leaked leases, zero stuck sessions.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"scsq"
	"scsq/internal/server"
	"scsq/internal/server/client"
)

func TestChaosConnectSubmitCancelDisconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos hammer skipped in -short")
	}
	eng, err := scsq.New()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Warm lazy engine goroutines before the leak baseline.
	if s, err := eng.Submit(`select count(sys_nodes());`); err != nil {
		t.Fatal(err)
	} else if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	srv := server.New(eng, server.Config{MaxConns: 64})
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}

	const (
		seed    = 0xC0FFEE
		workers = 12
		rounds  = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for round := 0; round < rounds; round++ {
				cli, err := client.Dial(addr.String(), client.Options{})
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d dial: %v", w, round, err)
					return
				}
				// Pipeline a random mix of finite queries and live streams.
				var handles []*client.SessionHandle
				for i := 0; i < 1+rng.Intn(3); i++ {
					stmt := `select count(sys_nodes());`
					if rng.Intn(2) == 0 {
						stmt = `select streamof(sys_sessions());`
					}
					h, err := cli.Submit(stmt, rng.Intn(3))
					if err != nil {
						errs <- fmt.Errorf("worker %d round %d submit: %v", w, round, err)
						cli.Kill()
						return
					}
					handles = append(handles, h)
				}
				switch rng.Intn(4) {
				case 0:
					// Orderly: cancel the live streams, wait everything.
					for _, h := range handles {
						_ = h.Cancel()
					}
					for _, h := range handles {
						h.Wait()
					}
					cli.Close()
				case 1:
					// Abrupt mid-stream disconnect: the server must cancel
					// and release on its own.
					cli.Kill()
				case 2:
					// Read a little, then vanish.
					for _, h := range handles {
						h.Recv()
					}
					cli.Kill()
				default:
					// Ping, cancel by server-wide id, then close cleanly.
					_ = cli.Ping()
					for _, h := range handles {
						_ = cli.CancelID(h.ID)
					}
					for _, h := range handles {
						h.Wait()
					}
					cli.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every session the hammer left behind must reach a terminal state and
	// give back its leases: poll the scheduler's own table.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if live, leases := liveAndLeased(t, eng); live == 0 && leases == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if live, leases := liveAndLeased(t, eng); live != 0 || leases != 0 {
		t.Fatalf("after chaos: %d live sessions, %d leased nodes", live, leases)
	}

	if err := srv.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	// Drain joins every teardown (including write-error teardowns spawned
	// off the write loop), so no stale sys_conns row may survive it — not
	// even from a client that disconnected between registration and its
	// first submit. No polling: the rows must already be gone.
	if rows := localRows(t, eng, `select sys_conns();`); len(rows) != 0 {
		t.Fatalf("%d stale sys_conns rows after drain: %v", len(rows), rows)
	}
	for i := 0; i < 500 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after chaos drain: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// liveAndLeased counts non-final sessions and their held node leases.
func liveAndLeased(t *testing.T, eng *scsq.Engine) (live, leases int) {
	t.Helper()
	for _, in := range eng.Scheduler().List() {
		if !in.State.Final() {
			live++
		}
		leases += in.Nodes
	}
	return live, leases
}
