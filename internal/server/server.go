// Package server is the SCSQL network serving layer: it binds an scsq
// Engine to a TCP (optionally TLS) listener and speaks the wire protocol of
// internal/server/wire, so every SCSQL surface — statements, ps(), cancel(),
// sys_* snapshots, streamof() live streams — works over the network.
//
// Each connection runs a reader/writer goroutine pair; every submitted
// statement becomes one scheduler session whose result elements stream back
// incrementally as tagged Row frames (Session.Results), interleaved across
// the connection's pipelined sessions. Result flow is backpressured by a
// bounded per-connection write queue: a slow client slows only its own
// sessions' pumps, never the engine's virtual-time kernel.
//
// The server is an observer of the engine in exactly the way the system
// catalog is: attaching it must not perturb virtual-time schedules. All its
// bookkeeping is wall-clock-side (rt.-prefixed where a metric's value
// depends on wall-clock interleaving), and its sys_conns table registers
// only when a server is attached.
package server

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scsq"
	"scsq/internal/catalog"
	"scsq/internal/metrics"
	"scsq/internal/scsql"
	"scsq/internal/server/wire"
)

// Errors of the serving layer.
var (
	// ErrDraining is reported to submits that arrive while the server is
	// shutting down — reads of the system catalog excepted.
	ErrDraining = errors.New("server: draining, not accepting new sessions")
	// ErrClosed is returned by operations on a closed server.
	ErrClosed = errors.New("server: closed")
	// ErrAuthFailed rejects a handshake whose token the auth hook refused.
	ErrAuthFailed = errors.New("server: authentication failed")
)

// Config parameterizes a Server. The zero value listens on an ephemeral
// localhost port with no auth, no TLS, and defaults suitable for tests.
type Config struct {
	// Addr is the listen address ("host:port"). Empty means "127.0.0.1:0".
	Addr string
	// MaxConns caps concurrently open connections; an accept over the cap
	// is shed (closed immediately). 0 means DefaultMaxConns.
	MaxConns int
	// MaxFrame bounds a single protocol frame. 0 means wire.DefaultMaxFrame.
	MaxFrame int
	// WriteQueue is the length of the per-connection outbound queue, in
	// chunks: a control frame, or up to 16 KiB of a session's rows. Result
	// pumps block when it fills — backpressure toward the session, not the
	// engine. 0 means DefaultWriteQueue.
	WriteQueue int
	// HandshakeTimeout bounds how long a fresh connection may take to
	// complete the Hello exchange. 0 means DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
	// IdleTimeout, when positive, closes a connection that sends no frame
	// for the duration. Long-lived streaming sessions keep their results
	// flowing regardless; the deadline applies to the client's read side
	// only, so leave it zero (disabled) unless the deployment needs it —
	// a client blocked on a live stream sends nothing for a long time.
	IdleTimeout time.Duration
	// Auth, when set, vets the handshake token; any error rejects the
	// connection after the Hello. The error text crosses the wire.
	Auth func(token string) error
	// TLS, when set, wraps the listener (scsq-server plumbs -tls-cert/-key
	// here). Nil serves plaintext.
	TLS *tls.Config
	// Name is reported in the Accepted frame ("scsq-server/1").
	Name string
}

// Defaults for Config zero fields.
const (
	DefaultMaxConns         = 1024
	DefaultWriteQueue       = 256
	DefaultHandshakeTimeout = 10 * time.Second
)

// Server serves one engine over one listener.
type Server struct {
	eng *scsq.Engine
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	conns    map[int64]*conn
	connSeq  int64
	draining bool
	closed   bool

	wg sync.WaitGroup // accept loop + every connection goroutine

	mAccepted  *metrics.Counter
	mShed      *metrics.Counter
	mSubmits   *metrics.Counter
	mFramesIn  *metrics.Counter
	mFramesOut *metrics.Counter
	gOpen      *metrics.Gauge
	hTTFB      *metrics.Histogram // rt.: wall-clock submit→first-row latency
}

// New returns a server over eng, registers its counters in the engine's
// metrics registry and its sys_conns table in the system catalog. The
// server does not listen until Listen (or Serve) is called.
func New(eng *scsq.Engine, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.WriteQueue <= 0 {
		cfg.WriteQueue = DefaultWriteQueue
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.Name == "" {
		cfg.Name = "scsq-server/1"
	}
	reg := eng.MetricsRegistry()
	s := &Server{
		eng:        eng,
		cfg:        cfg,
		conns:      make(map[int64]*conn),
		mAccepted:  reg.Counter("server.conns.accepted"),
		mShed:      reg.Counter("server.conns.shed"),
		mSubmits:   reg.Counter("server.submits"),
		mFramesIn:  reg.Counter("server.frames.in"),
		mFramesOut: reg.Counter("server.frames.out"),
		gOpen:      reg.Gauge(metrics.RTPrefix + "server.conns.open"),
		hTTFB:      reg.Histogram(metrics.RTPrefix + "server.ttfb"),
	}
	s.registerSysConns()
	return s
}

// Listen binds the configured address and starts the accept loop in the
// background, returning the bound address (useful with port 0).
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	if s.cfg.TLS != nil {
		ln = tls.NewListener(ln, s.cfg.TLS)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr(), nil
}

// Addr returns the bound listen address, nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// acceptLoop accepts until the listener closes, shedding connections over
// the cap: the paper's admission-control stance applied to the transport —
// refuse at the door rather than degrade everyone inside.
func (s *Server) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed (Drain/Close) or fatal accept error
		}
		s.mu.Lock()
		over := len(s.conns) >= s.cfg.MaxConns
		drain := s.draining || s.closed
		if !over && !drain {
			s.connSeq++
			c := newConn(s, s.connSeq, nc)
			s.conns[c.id] = c
			s.gOpen.Set(int64(len(s.conns)))
			s.mu.Unlock()
			s.mAccepted.Inc()
			s.wg.Add(2)
			go func() { defer s.wg.Done(); c.readLoop() }()
			go func() { defer s.wg.Done(); c.writeLoop() }()
			continue
		}
		s.mu.Unlock()
		if over {
			s.mShed.Inc()
		}
		nc.Close()
	}
}

// removeConn unregisters a finished connection.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c.id)
	s.gOpen.Set(int64(len(s.conns)))
	s.mu.Unlock()
}

// snapshotConns returns the open connections.
func (s *Server) snapshotConns() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*conn, 0, len(s.conns))
	for _, c := range s.conns {
		out = append(out, c)
	}
	return out
}

// Drain gracefully shuts the server down: stop accepting connections and
// statements (a catalog read is still answered, so the drain can be watched
// over a connection already open), announce the
// drain to every client, give live sessions up to grace to finish, cancel
// whatever remains, then close every connection and wait for all server
// goroutines to exit. Drain is idempotent; concurrent calls wait for the
// first to finish.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	already := s.draining
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if already {
		s.wg.Wait()
		return nil
	}
	if ln != nil {
		ln.Close()
	}
	for _, c := range s.snapshotConns() {
		c.announceDrain(grace)
	}
	// Quiesce: wait for every connection's sessions to reach a terminal
	// state (their Done frames flushed by the pumps) within the grace
	// window, polling — session completion is driven by the engine's own
	// goroutines, not by us.
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if s.liveSessions() == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Cancel the stragglers and wait for their pumps to deliver the
	// cancelled Done frames.
	for _, c := range s.snapshotConns() {
		c.cancelSessions()
	}
	waitFlush := time.Now().Add(2 * time.Second)
	for time.Now().Before(waitFlush) && s.liveSessions() > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	for _, c := range s.snapshotConns() {
		c.close(ErrDraining)
	}
	s.wg.Wait()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// isDraining reports whether a drain has started.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// catalogRead reports whether src is a statement a draining server still
// answers: a read of the system catalog (scsql.CatalogRead), which holds no
// node, ends by itself and is how an operator watches the drain. Parsed here
// only while draining; a statement that does not parse is refused with the
// rest.
func (s *Server) catalogRead(src string) bool {
	stmt, err := scsql.Parse(src)
	return err == nil && scsql.CatalogRead(stmt, s.eng.SystemCatalog())
}

// liveSessions counts sessions not yet finalized across all connections.
func (s *Server) liveSessions() int {
	n := 0
	for _, c := range s.snapshotConns() {
		n += c.liveSessions()
	}
	return n
}

// Close tears the server down without a grace window.
func (s *Server) Close() error { return s.Drain(0) }

// SysConnsSchema is the sys_conns column list, exported for the schema
// drift guard against DESIGN.md §14.
var SysConnsSchema = catalog.Schema{
	{Name: "id", Type: catalog.TString},
	{Name: "remote", Type: catalog.TString},
	{Name: "state", Type: catalog.TString},
	{Name: "sessions", Type: catalog.TInt},
	{Name: "submitted", Type: catalog.TInt},
	{Name: "rows_out", Type: catalog.TInt},
	{Name: "frames_in", Type: catalog.TInt},
	{Name: "frames_out", Type: catalog.TInt},
}

// registerSysConns installs the sys_conns provider: one row per open
// connection. Registered only when a server is attached to the engine, so
// engines without one keep the golden seven-table catalog (and the schema
// drift guard of internal/scsql).
func (s *Server) registerSysConns() {
	t := &catalog.Table{
		Name:   "sys_conns",
		Doc:    "open server connections: per-conn sessions, rows and frame counts",
		Schema: SysConnsSchema,
	}
	t.Snap = func(string) ([]catalog.Tuple, error) {
		conns := s.snapshotConns()
		rows := make([]catalog.Tuple, 0, len(conns))
		for _, c := range conns {
			id, remote, state, sess, sub, rowsOut, fin, fout := c.stats()
			rows = append(rows, t.Row(id, remote, state, sess, sub, rowsOut, fin, fout))
		}
		return rows, nil
	}
	if err := s.eng.SystemCatalog().Register(t); err != nil {
		panic(fmt.Sprintf("server: register sys_conns: %v", err))
	}
}
