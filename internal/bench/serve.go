package bench

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scsq"
	"scsq/internal/server"
	"scsq/internal/server/client"
)

// runServe is the serving-layer figure at its acceptance sizing — 1000
// concurrent connections, 3 statements each — or, under Tiny, the CI smoke
// sizing of 50 connections, 2 statements each.
func runServe(s Sizing) ([]Point, error) {
	if s.Tiny {
		return serve(50, 2)
	}
	return serve(1000, 3)
}

// serve builds one engine + server pair, sustains conns concurrent client
// connections against it over the real TCP stack, verifies the live
// connection count through the server's own sys_conns table (snapshot and
// live stream, both over the wire; both must see conns+1, the observer
// connection included), then drives perConn catalog statements per
// connection and audits every session's frame accounting: the client-side
// row count must equal the server's Done.Rows count. Any accounting
// violation, lost frame, or failed session is an error — the figure is also
// an assertion — so the "dropped" and "duplicated" series can only read
// zero. The ttfb series are wall-clock submit-to-first-row latencies
// measured client-side across all sessions.
func serve(conns, perConn int) ([]Point, error) {
	eng, err := scsq.New(scsq.WithAdmissionQueueCap(0))
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{MaxConns: conns + 8})
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Observer connection: watches the serving layer through its own
	// catalog table while the fleet connects.
	obs, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		return nil, err
	}
	defer obs.Close()

	// Phase 1: connect the whole fleet and hold it open.
	clients := make([]*client.Client, conns)
	var dialWG sync.WaitGroup
	dialErr := make(chan error, conns)
	for i := range clients {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			c, err := client.Dial(addr.String(), client.Options{})
			if err != nil {
				dialErr <- fmt.Errorf("dial %d: %w", i, err)
				return
			}
			clients[i] = c
		}(i)
	}
	dialWG.Wait()
	close(dialErr)
	for err := range dialErr {
		return nil, err
	}
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()

	// Phase 2: the wire must reflect the live connection count — once via
	// a sys_conns snapshot, once via a streamof(sys_conns()) session whose
	// initial emission enumerates every open connection.
	want := conns + 1 // fleet + observer
	rows, err := sysConns(obs)
	if err != nil {
		return nil, err
	}
	if len(rows) != want {
		return nil, fmt.Errorf("sys_conns snapshot: %d rows, want %d live conns", len(rows), want)
	}
	peak := len(rows)
	h, err := obs.Submit(`select streamof(sys_conns());`, 0)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for len(seen) < want {
		row, ok, fin := h.Recv()
		if !ok {
			return nil, fmt.Errorf("streamof(sys_conns()) ended after %d/%d conns (fin %+v)", len(seen), want, fin)
		}
		tup, ok := row.Value.([]any)
		if !ok || len(tup) == 0 {
			return nil, fmt.Errorf("streamof(sys_conns()) row %T, want tuple", row.Value)
		}
		id, _ := tup[0].(string)
		seen[id] = true
	}
	if err := h.Cancel(); err != nil {
		return nil, err
	}
	h.Wait()

	// Phase 3: the load. Every connection submits PerConn catalog counts
	// sequentially; TTFB is sampled client-side per session, and the frame
	// accounting (client rows vs server Done.Rows) is audited per session.
	const stmt = `select count(sys_nodes());`
	var (
		mu      sync.Mutex
		ttfbs   []time.Duration
		runErrs []error
		done    atomic.Int64
		dropped atomic.Int64
		duped   atomic.Int64
	)
	start := time.Now()
	var loadWG sync.WaitGroup
	for i, c := range clients {
		loadWG.Add(1)
		go func(i int, c *client.Client) {
			defer loadWG.Done()
			for j := 0; j < perConn; j++ {
				t0 := time.Now()
				h, err := c.Submit(stmt, 0)
				if err != nil {
					mu.Lock()
					runErrs = append(runErrs, fmt.Errorf("conn %d submit %d: %w", i, j, err))
					mu.Unlock()
					return
				}
				var got int64
				var ttfb time.Duration
				for {
					_, ok, fin := h.Recv()
					if ok {
						if got == 0 {
							ttfb = time.Since(t0)
						}
						got++
						continue
					}
					if fin == nil {
						mu.Lock()
						runErrs = append(runErrs, fmt.Errorf("conn %d session %d: connection died", i, j))
						mu.Unlock()
						return
					}
					if fin.Err != "" {
						mu.Lock()
						runErrs = append(runErrs, fmt.Errorf("conn %d session %d: %s: %s", i, j, fin.State, fin.Err))
						mu.Unlock()
						return
					}
					if got < fin.Rows {
						dropped.Add(fin.Rows - got)
					}
					if got > fin.Rows {
						duped.Add(got - fin.Rows)
					}
					break
				}
				done.Add(1)
				mu.Lock()
				ttfbs = append(ttfbs, ttfb)
				mu.Unlock()
			}
		}(i, c)
	}
	loadWG.Wait()
	wall := time.Since(start)
	if len(runErrs) > 0 {
		return nil, fmt.Errorf("%d session errors, first: %w", len(runErrs), runErrs[0])
	}

	// Phase 4: the same audit on a long session, where rows travel many to
	// a socket write, plus the server's own per-frame count read back over
	// the wire.
	lost, extra, err := auditLongSession(addr.String(), obs)
	if err != nil {
		return nil, err
	}
	dropped.Add(lost)
	duped.Add(extra)

	sessions := int(done.Load())
	if want := conns * perConn; sessions != want {
		return nil, fmt.Errorf("completed %d sessions, want %d", sessions, want)
	}
	if dropped.Load() != 0 || duped.Load() != 0 {
		return nil, fmt.Errorf("frame accounting: %d dropped, %d duplicated", dropped.Load(), duped.Load())
	}
	sort.Slice(ttfbs, func(a, b int) bool { return ttfbs[a] < ttfbs[b] })
	x := strconv.Itoa(conns)
	return []Point{
		reading(x, "peak", "conns", float64(peak)),
		reading(x, "sessions", "count", float64(sessions)),
		reading(x, "dropped", "frames", float64(dropped.Load())),
		reading(x, "duplicated", "frames", float64(duped.Load())),
		reading(x, "rate", "sessions/s", float64(sessions)/wall.Seconds()),
		reading(x, "ttfb-p50", "us", float64(percentileDur(ttfbs, 0.50).Microseconds())),
		reading(x, "ttfb-p99", "us", float64(percentileDur(ttfbs, 0.99).Microseconds())),
		reading(x, "wall", "ms", float64(wall.Microseconds())/1e3),
	}, nil
}

// longSessionRows is the row count of the long-session audit: enough for
// several outbound chunks.
const longSessionRows = 2000

// auditLongSession streams longSessionRows rows over a connection of its
// own and returns the client-side accounting violations (rows received vs
// Done.Rows). It then reads that connection's sys_conns row through obs and
// requires the server's counters to be exact per frame, however many frames
// shared a socket write: frames_out = rows + 3 (Accepted, Submitted, Done)
// and rows_out = rows. The counters are credited after each write returns,
// so the last frame's credit may trail its arrival; the snapshot is retried
// until the count is reached, and fails at once if it is ever exceeded.
func auditLongSession(addr string, obs *client.Client) (lost, extra int64, err error) {
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	h, err := c.Submit(fmt.Sprintf(`select i from integer i where i in iota(1,%d);`, longSessionRows), 0)
	if err != nil {
		return 0, 0, err
	}
	var got int64
	var fin *client.Done
	for {
		_, ok, d := h.Recv()
		if !ok {
			fin = d
			break
		}
		got++
	}
	if fin == nil || fin.Err != "" || fin.Rows != longSessionRows {
		return 0, 0, fmt.Errorf("long session: ended %+v after %d rows, want %d", fin, got, longSessionRows)
	}
	lost, extra = max(fin.Rows-got, 0), max(got-fin.Rows, 0)

	wantFrames := fin.Rows + 3
	for deadline := time.Now().Add(5 * time.Second); ; {
		rows, err := sysConns(obs)
		if err != nil {
			return 0, 0, err
		}
		var rowsOut, framesOut int64 = -1, -1
		for _, row := range rows {
			r, _ := row.Value.([]any)
			if len(r) != len(server.SysConnsSchema) {
				continue
			}
			if id, _ := r[0].(string); id == c.ConnID {
				rowsOut, _ = r[5].(int64)
				framesOut, _ = r[7].(int64)
			}
		}
		if framesOut == wantFrames && rowsOut == fin.Rows {
			return lost, extra, nil
		}
		if framesOut > wantFrames || rowsOut > fin.Rows || time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("long session: sys_conns has frames_out %d, rows_out %d for %s; want exactly %d and %d",
				framesOut, rowsOut, c.ConnID, wantFrames, fin.Rows)
		}
	}
}

// sysConns reads the serving layer's connection table the way any client
// does: by statement.
func sysConns(obs *client.Client) ([]client.Row, error) {
	h, err := obs.Submit(`select sys_conns();`, 0)
	if err != nil {
		return nil, err
	}
	rows, fin, err := h.Wait()
	if err == nil && fin.Err != "" {
		err = fmt.Errorf("sys_conns(): session %s: %s", fin.State, fin.Err)
	}
	return rows, err
}

// percentileDur reads the p-quantile from an ascending sample slice.
func percentileDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
