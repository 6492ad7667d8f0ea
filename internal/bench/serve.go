package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scsq"
	"scsq/internal/server"
	"scsq/internal/server/client"
)

// ServeConfig parameterizes the serving-layer figure: N concurrent client
// connections over the real TCP stack against one scsq-server, each
// submitting PerConn catalog statements and streaming the results back.
// The figure doubles as the frame-accounting acceptance gate: every
// session's client-side row count must equal the server's Done.Rows count
// (zero dropped, zero duplicated frames).
type ServeConfig struct {
	// Conns is how many concurrent client connections to sustain.
	Conns int
	// PerConn is how many statements each connection submits sequentially.
	PerConn int
}

// DefaultServe is the acceptance sizing: 1000 concurrent connections.
func DefaultServe() ServeConfig { return ServeConfig{Conns: 1000, PerConn: 3} }

// TinyServe is the CI smoke sizing: 50 connections.
func TinyServe() ServeConfig { return ServeConfig{Conns: 50, PerConn: 2} }

// ServeReport is the BENCH_serve.json document.
type ServeReport struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`

	Conns   int `json:"conns"`
	PerConn int `json:"per_conn"`

	// PeakConns is the live connection count observed through the wire —
	// both a sys_conns snapshot and a streamof(sys_conns()) session run
	// while every connection is open; both must see Conns+1 (the observer
	// connection included).
	PeakConns int `json:"peak_conns"`

	// Sessions counts completed statement sessions; Dropped and Duplicated
	// count result-frame accounting violations (client rows vs server
	// Done.Rows) and must both be zero.
	Sessions   int   `json:"sessions"`
	Dropped    int64 `json:"dropped_frames"`
	Duplicated int64 `json:"duplicated_frames"`

	SessionsPerSec float64 `json:"sessions_per_sec"`
	// TTFB percentiles are wall-clock submit-to-first-row latencies
	// measured client-side across all sessions.
	TTFBP50Ns int64   `json:"ttfb_p50_ns"`
	TTFBP99Ns int64   `json:"ttfb_p99_ns"`
	WallMs    float64 `json:"wall_ms"`
}

// RunServe builds one engine + server pair, sustains cfg.Conns concurrent
// client connections against it, verifies the live connection count through
// the server's own sys_conns table (snapshot and live stream, both over the
// wire), then drives cfg.PerConn statements per connection and audits every
// session's frame accounting. Any accounting violation, lost frame, or
// failed session is an error — the figure is also an assertion.
func RunServe(cfg ServeConfig) (ServeReport, error) {
	report := ServeReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Conns:      cfg.Conns,
		PerConn:    cfg.PerConn,
	}
	eng, err := scsq.New(scsq.WithAdmissionQueueCap(0))
	if err != nil {
		return ServeReport{}, err
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{MaxConns: cfg.Conns + 8})
	addr, err := srv.Listen()
	if err != nil {
		return ServeReport{}, err
	}
	defer srv.Close()

	// Observer connection: watches the serving layer through its own
	// catalog table while the fleet connects.
	obs, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		return ServeReport{}, err
	}
	defer obs.Close()

	// Phase 1: connect the whole fleet and hold it open.
	clients := make([]*client.Client, cfg.Conns)
	var dialWG sync.WaitGroup
	dialErr := make(chan error, cfg.Conns)
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
		return ServeReport{}, err
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
	want := cfg.Conns + 1 // fleet + observer
	rows, err := obs.Snap("sys_conns", "")
	if err != nil {
		return ServeReport{}, err
	}
	if len(rows) != want {
		return ServeReport{}, fmt.Errorf("sys_conns snapshot: %d rows, want %d live conns", len(rows), want)
	}
	report.PeakConns = len(rows)
	h, err := obs.Submit(`select streamof(sys_conns());`, 0)
	if err != nil {
		return ServeReport{}, err
	}
	seen := map[string]bool{}
	for len(seen) < want {
		row, ok, fin := h.Recv()
		if !ok {
			return ServeReport{}, fmt.Errorf("streamof(sys_conns()) ended after %d/%d conns (fin %+v)", len(seen), want, fin)
		}
		tup, ok := row.Value.([]any)
		if !ok || len(tup) == 0 {
			return ServeReport{}, fmt.Errorf("streamof(sys_conns()) row %T, want tuple", row.Value)
		}
		id, _ := tup[0].(string)
		seen[id] = true
	}
	if err := h.Cancel(); err != nil {
		return ServeReport{}, err
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
			for j := 0; j < cfg.PerConn; j++ {
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
		return ServeReport{}, fmt.Errorf("%d session errors, first: %w", len(runErrs), runErrs[0])
	}

	// Phase 4: the same audit on a long session, where rows travel many to
	// a socket write, plus the server's own per-frame count read back over
	// the wire.
	lost, extra, err := auditLongSession(addr.String(), obs)
	if err != nil {
		return ServeReport{}, err
	}
	dropped.Add(lost)
	duped.Add(extra)

	report.Sessions = int(done.Load())
	report.Dropped = dropped.Load()
	report.Duplicated = duped.Load()
	if want := cfg.Conns * cfg.PerConn; report.Sessions != want {
		return ServeReport{}, fmt.Errorf("completed %d sessions, want %d", report.Sessions, want)
	}
	if report.Dropped != 0 || report.Duplicated != 0 {
		return ServeReport{}, fmt.Errorf("frame accounting: %d dropped, %d duplicated", report.Dropped, report.Duplicated)
	}
	report.SessionsPerSec = float64(report.Sessions) / wall.Seconds()
	report.WallMs = float64(wall.Microseconds()) / 1e3
	sort.Slice(ttfbs, func(a, b int) bool { return ttfbs[a] < ttfbs[b] })
	report.TTFBP50Ns = percentileDur(ttfbs, 0.50).Nanoseconds()
	report.TTFBP99Ns = percentileDur(ttfbs, 0.99).Nanoseconds()
	return report, nil
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
		rows, err := obs.Snap("sys_conns", "")
		if err != nil {
			return 0, 0, err
		}
		var rowsOut, framesOut int64 = -1, -1
		for _, r := range rows {
			if id, _ := r[0].(string); id == c.ConnID && len(r) == len(server.SysConnsSchema) {
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

// percentileDur reads the p-quantile from an ascending sample slice.
func percentileDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// WriteServeJSON emits the report as indented JSON (BENCH_serve.json).
func WriteServeJSON(w io.Writer, r ServeReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteServe renders the report as a text table.
func WriteServe(w io.Writer, r ServeReport) error {
	host := fmt.Sprintf("%s %s/%s gomaxprocs=%d", r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS)
	if r.CPUModel != "" {
		host += " cpu=" + r.CPUModel
	}
	if _, err := fmt.Fprintf(w, "Serving layer: %d concurrent conns × %d sessions over TCP (%s)\n",
		r.Conns, r.PerConn, host); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%8s %9s %9s %8s %7s %12s %12s %12s %9s\n%8d %9d %9d %8d %7d %10.0f/s %9d µs %9d µs %7.1f ms\n",
		"conns", "peak", "sessions", "dropped", "duped", "rate", "ttfbP50", "ttfbP99", "wall",
		r.Conns, r.PeakConns, r.Sessions, r.Dropped, r.Duplicated,
		r.SessionsPerSec, r.TTFBP50Ns/1000, r.TTFBP99Ns/1000, r.WallMs)
	return err
}
