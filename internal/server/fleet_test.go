package server_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scsq/internal/server"
	"scsq/internal/server/client"
)

// TestFleetAccounting holds a fleet of connections open against one server
// and audits what crosses the wire. The connection table must see every
// live connection, by snapshot and by live stream; every session's client
// row count must equal the server's Done.Rows, none dropped or duplicated;
// and on a long session, whose rows travel many to a socket write, the
// server's own per-connection counters must be exact per frame.
func TestFleetAccounting(t *testing.T) {
	const conns, perConn = 50, 2
	_, _, addr := newServer(t, server.Config{MaxConns: conns + 8})
	obs, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()

	clients := make([]*client.Client, conns)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			clients[i] = c
		}()
	}
	wg.Wait()
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	if t.Failed() {
		t.FailNow()
	}

	// The fleet and the observer, once by snapshot and once by the initial
	// emission of a live stream.
	want := conns + 1
	if rows := remoteRows(t, obs, `select sys_conns();`); len(rows) != want {
		t.Fatalf("sys_conns snapshot: %d rows, want %d live connections", len(rows), want)
	}
	h, err := obs.Submit(`select streamof(sys_conns());`, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for len(seen) < want {
		row, ok, fin := h.Recv()
		if !ok {
			t.Fatalf("streamof(sys_conns()) ended after %d/%d connections (done %+v)", len(seen), want, fin)
		}
		tup, ok := row.Value.([]any)
		if !ok || len(tup) == 0 {
			t.Fatalf("streamof(sys_conns()) row %T, want a tuple", row.Value)
		}
		id, _ := tup[0].(string)
		seen[id] = true
	}
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	h.Wait()

	// Every connection runs its statements one after another; each
	// session's rows are counted client-side against the server's Done.Rows.
	var done, dropped, duped atomic.Int64
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range perConn {
				h, err := c.Submit(`select count(sys_nodes());`, 0)
				if err != nil {
					t.Errorf("conn %d submit %d: %v", i, j, err)
					return
				}
				var got int64
				for {
					_, ok, fin := h.Recv()
					if ok {
						got++
						continue
					}
					if fin == nil || fin.Err != "" {
						t.Errorf("conn %d session %d ended %+v", i, j, fin)
						return
					}
					dropped.Add(max(fin.Rows-got, 0))
					duped.Add(max(got-fin.Rows, 0))
					break
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := done.Load(); n != conns*perConn {
		t.Errorf("completed %d sessions, want %d", n, conns*perConn)
	}
	if dropped.Load() != 0 || duped.Load() != 0 {
		t.Errorf("row accounting: %d dropped, %d duplicated", dropped.Load(), duped.Load())
	}

	// The long session, on a connection of its own: Accepted, Submitted,
	// every row and Done are one frame each, however many share a write.
	const rows = 2000
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, fin, err := func() ([]client.Row, client.Done, error) {
		h, err := c.Submit(fmt.Sprintf(`select i from integer i where i in iota(1,%d);`, rows), 0)
		if err != nil {
			return nil, client.Done{}, err
		}
		return h.Wait()
	}()
	if err != nil || fin.Err != "" || fin.Rows != rows || len(got) != rows {
		t.Fatalf("long session: %d rows, done %+v, err %v; want %d rows", len(got), fin, err, rows)
	}
	// The counters are credited after each write returns, so the last
	// frame's credit may trail its arrival: read until the counts are
	// reached, and fail at once if they are ever exceeded.
	const wantFrames = rows + 3
	for deadline := time.Now().Add(5 * time.Second); ; {
		var rowsOut, framesOut int64 = -1, -1
		for _, r := range remoteRows(t, obs, `select sys_conns();`) {
			if r[0] == c.ConnID {
				rowsOut, framesOut = r[5].(int64), r[7].(int64)
			}
		}
		if framesOut == wantFrames && rowsOut == rows {
			break
		}
		if framesOut > wantFrames || rowsOut > rows || time.Now().After(deadline) {
			t.Fatalf("sys_conns row of %s: frames_out %d, rows_out %d; want exactly %d and %d",
				c.ConnID, framesOut, rowsOut, wantFrames, rows)
		}
	}
}
