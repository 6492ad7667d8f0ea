// Package client is the typed Go client of the SCSQL wire protocol: the
// programmatic face of scsq-server used by the remote shell, the serve
// load generator, and the server's own tests. One Client multiplexes any
// number of pipelined sessions over a single connection; a background
// reader dispatches tagged frames to per-session queues.
//
// Result rows move in runs. The reader decodes the consecutive Row frames of
// one session into a run and hands the run to the session's queue under one
// lock — when the wire reader holds no whole next frame (the next read may
// block: the server's own flush rule, so a row never waits for a later one,
// not even for one whose first bytes are already here), when the tag changes, before any other frame, at Options.RecvBuffer rows,
// and when it exits. A session is two row slices playing ping-pong: the
// reader fills one while Recv pops the other without a lock, and they swap
// when Recv runs dry. The slices are recycled through the Client, so a
// session on a warm connection allocates no row storage at all.
package client

import (
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scsq/internal/server/wire"
)

// Errors of the client.
var (
	// ErrClosed reports an operation on a closed client (or one whose
	// connection died; Err has the cause).
	ErrClosed = errors.New("client: connection closed")
	// ErrRejected reports a handshake the server refused.
	ErrRejected = errors.New("client: handshake rejected")
)

// Options parameterize Dial. The zero value is ready to use.
type Options struct {
	// Token is the handshake auth token.
	Token string
	// MaxFrame bounds inbound frames (0: wire.DefaultMaxFrame).
	MaxFrame int
	// DialTimeout bounds the TCP connect (0: 10s).
	DialTimeout time.Duration
	// TLS, when set, dials TLS with this config.
	TLS *tls.Config
	// RecvBuffer bounds the rows queued per session ahead of its consumer
	// (0: 256) — beyond the batch Recv is already popping from, which is at
	// most as long. A live session's full queue blocks the reader, which
	// backpressures the TCP stream and, through it, the server; the reader
	// drops a session's rows only after Cancel — never silently. It is
	// also the longest run the reader collects before handing it over.
	RecvBuffer int
}

// Row is one result element of a remote session.
type Row struct {
	// At is the element's virtual timestamp offset.
	At time.Duration
	// Source names the producing stream process, when it crossed a merge.
	Source string
	// Value is the wire-lowered element value (int64, float64, bool,
	// string, []float64, []any).
	Value any
}

// Done is the terminal record of a remote session.
type Done struct {
	// State is the session's final scheduler state ("done", "cancelled",
	// "failed", "expired").
	State string
	// Err is the terminal error message, empty for a clean finish.
	Err string
	// Makespan is the session's virtual completion time.
	Makespan time.Duration
	// Rows is the server-side count of Row frames sent for this session —
	// the frame-accounting ground truth the serve bench checks against.
	Rows int64
}

// SessionHandle is the client side of one submitted statement. Its row
// stream ends after the terminal record landed (server Done frame) or the
// connection died (nil terminal record). Recv and Wait belong to one
// consumer goroutine; Cancel may come from any.
type SessionHandle struct {
	c   *Client
	tag int64

	// ID is the server-side session id ("q1", ...), filled by Submit.
	ID string

	// cur is the consumer's own batch: Recv pops cur[head] without a lock,
	// zeroing the slot so a consumed value is not pinned, and swaps cur with
	// pending when it runs out.
	cur  []Row
	head int

	mu        sync.Mutex
	cond      sync.Cond // on mu: the reader waits for room, the consumer for rows
	pending   []Row     // handed over by the reader, at most recvBuf rows
	ended     bool      // nothing more will be handed over
	cancelled bool
	fin       *Done
}

// Client is one connection to an scsq-server.
type Client struct {
	nc net.Conn

	wmu sync.Mutex // serializes writers (Submit, Cancel, Ping, ...)

	mu       sync.Mutex
	sessions map[int64]*SessionHandle
	waiters  map[int64]chan result // tag → one-shot reply (Submitted/OK/Error)
	tagSeq   int64
	err      error
	closed   bool

	readerDone chan struct{}
	recvBuf    int

	// freeRows recycles the sessions' row slices: a session takes its two
	// when its first rows arrive and returns them, emptied, when its
	// consumer reaches the end of the stream.
	freeMu   sync.Mutex
	freeRows [][]Row

	// ServerName and ConnID are filled from the Accepted frame.
	ServerName string
	ConnID     string

	// Draining is closed when the server announces a drain.
	Draining  chan struct{}
	drainOnce sync.Once
	pongs     chan int64
}

// result is a one-shot reply to a tagged request.
type result struct {
	frame wire.Frame
	err   error
}

// Dial connects, handshakes, and starts the reader.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	var nc net.Conn
	var err error
	if opts.TLS != nil {
		nc, err = tls.DialWithDialer(&net.Dialer{Timeout: opts.DialTimeout}, "tcp", addr, opts.TLS)
	} else {
		nc, err = net.DialTimeout("tcp", addr, opts.DialTimeout)
	}
	if err != nil {
		return nil, err
	}
	c, err := handshake(nc, opts)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// handshake runs the Hello exchange over an established transport and
// starts the reader. opts.DialTimeout bounds the wait for the server's
// answer. On error the caller closes nc.
func handshake(nc net.Conn, opts Options) (*Client, error) {
	if opts.RecvBuffer <= 0 {
		opts.RecvBuffer = 256
	}
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.MustBag(int64(wire.ProtoVersion), opts.Token)); err != nil {
		return nil, err
	}
	r := wire.NewReader(nc, opts.MaxFrame)
	nc.SetReadDeadline(time.Now().Add(opts.DialTimeout))
	f, err := r.Next()
	nc.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	c := &Client{
		nc:         nc,
		sessions:   make(map[int64]*SessionHandle),
		waiters:    make(map[int64]chan result),
		readerDone: make(chan struct{}),
		recvBuf:    opts.RecvBuffer,
		Draining:   make(chan struct{}),
		pongs:      make(chan int64, 8),
	}
	switch f.Type {
	case wire.MsgAccepted:
		fields, err := wire.DecodeBag(f.Payload, 3)
		if err != nil {
			return nil, err
		}
		c.ServerName, _ = wire.Str(fields, 1)
		c.ConnID, _ = wire.Str(fields, 2)
	case wire.MsgError:
		fields, err := wire.DecodeBag(f.Payload, 2)
		msg := "unreadable error"
		if err == nil {
			msg, _ = wire.Str(fields, 1)
		}
		return nil, fmt.Errorf("%w: %s", ErrRejected, msg)
	default:
		return nil, fmt.Errorf("%w: unexpected frame %#x", ErrRejected, f.Type)
	}
	go c.readLoop(r)
	return c, nil
}

// Submit sends one SCSQL statement and returns its session handle once the
// server acknowledges it with the session id. Sessions pipeline freely: any
// number may be in flight per connection.
func (c *Client) Submit(stmt string, priority int) (*SessionHandle, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	c.tagSeq++
	tag := c.tagSeq
	h := &SessionHandle{c: c, tag: tag}
	h.cond.L = &h.mu
	ack := make(chan result, 1)
	c.sessions[tag] = h
	c.waiters[tag] = ack
	c.mu.Unlock()

	if err := c.write(wire.MsgSubmit, wire.MustBag(tag, stmt, int64(priority))); err != nil {
		c.dropSession(tag)
		return nil, err
	}
	res, err := c.await(ack)
	if err != nil {
		c.dropSession(tag)
		return nil, err
	}
	c.removeWaiter(tag) // the one reply is taken
	switch res.frame.Type {
	case wire.MsgSubmitted:
		fields, err := wire.DecodeBag(res.frame.Payload, 2)
		if err != nil {
			c.dropSession(tag)
			return nil, err
		}
		h.ID, _ = wire.Str(fields, 1)
		return h, nil
	case wire.MsgError:
		c.dropSession(tag)
		return nil, remoteErr(res.frame)
	default:
		c.dropSession(tag)
		return nil, fmt.Errorf("client: unexpected reply %#x to submit", res.frame.Type)
	}
}

// Recv returns the session's next result row. ok reports false at the end
// of the stream, in which case the terminal Done record is returned — nil
// only when the connection died before the session's Done frame arrived.
func (h *SessionHandle) Recv() (Row, bool, *Done) {
	if h.head == len(h.cur) && !h.refill() {
		return Row{}, false, h.fin // final once the stream has ended
	}
	row := h.cur[h.head]
	h.cur[h.head] = Row{}
	h.head++
	return row, true, nil
}

// Wait drains the session to its terminal record, returning all rows.
func (h *SessionHandle) Wait() ([]Row, Done, error) {
	var rows []Row
	for h.head < len(h.cur) || h.refill() {
		rows = append(rows, h.cur[h.head:]...)
		clear(h.cur[h.head:])
		h.head = len(h.cur)
	}
	if h.fin == nil {
		return rows, Done{}, fmt.Errorf("%w: session torn down mid-stream", ErrClosed)
	}
	return rows, *h.fin, nil
}

// refill swaps the consumer's exhausted batch with the pending rows,
// blocking while there are none. It reports false at the end of the stream,
// when both slices — empty, every slot zeroed — go back to the client.
func (h *SessionHandle) refill() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.pending) == 0 {
		if h.ended {
			h.c.putRows(h.cur)
			h.c.putRows(h.pending)
			h.cur, h.pending, h.head = nil, nil, 0
			return false
		}
		h.cond.Wait()
	}
	h.cur, h.pending, h.head = h.pending, h.cur[:0], 0
	h.cond.Broadcast() // the reader may be waiting for room
	return true
}

// deliver queues a run of rows for the consumer, blocking while a live
// session's queue is full. Rows of a cancelled session that do not fit are
// dropped — the consumer may be gone, and the connection's other sessions
// must keep flowing.
func (h *SessionHandle) deliver(run []Row) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(run) > 0 {
		room := h.c.recvBuf - len(h.pending)
		if room <= 0 {
			if h.cancelled {
				return
			}
			h.cond.Wait()
			continue
		}
		if cap(h.pending) == 0 {
			h.pending = h.c.getRows()
		}
		n := min(room, len(run))
		h.pending = append(h.pending, run[:n]...)
		run = run[n:]
		h.cond.Broadcast()
	}
}

// end closes the row stream with the session's terminal record (nil: the
// connection died first).
func (h *SessionHandle) end(fin *Done) {
	h.mu.Lock()
	h.fin, h.ended = fin, true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// Cancel asks the server to cancel this session. Rows already in flight
// may still arrive; the session ends with a cancelled Done record.
func (h *SessionHandle) Cancel() error {
	h.mu.Lock()
	h.cancelled = true
	h.mu.Unlock()
	h.cond.Broadcast() // a reader blocked on this session's full queue drops instead
	return h.c.request(wire.MsgCancel, wire.MustBag(h.tag, ""))
}

// CancelID cancels one of this connection's sessions by its server-side
// session id (the shell's \cancel q3). The server scopes
// the lookup to the issuing connection: a client cannot cancel another
// connection's queries.
func (c *Client) CancelID(id string) error {
	return c.request(wire.MsgCancel, wire.MustBag(int64(-1), id))
}

// Ping round-trips a nonce through the server.
func (c *Client) Ping() error {
	nonce := time.Now().UnixNano()
	if err := c.write(wire.MsgPing, wire.MustBag(nonce)); err != nil {
		return err
	}
	select {
	case got := <-c.pongs:
		if got != nonce {
			return fmt.Errorf("client: pong nonce %d != %d", got, nonce)
		}
		return nil
	case <-c.readerDone:
		return c.Err()
	case <-time.After(30 * time.Second):
		return errors.New("client: ping timeout")
	}
}

// Err returns the connection's terminal error (nil while healthy).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Kill closes the transport abruptly — no Goodbye, mid-frame if a write is
// in flight. This is the misbehaving-client path the server must survive
// (chaos and disconnect tests); in-flight sessions end with nil terminal
// records.
func (c *Client) Kill() {
	c.nc.Close()
	<-c.readerDone
}

// Close sends a Goodbye and closes the connection. In-flight sessions end
// with ErrClosed-style terminal records.
func (c *Client) Close() error {
	c.wmu.Lock()
	wire.WriteFrame(c.nc, wire.MsgGoodbye, wire.MustBag())
	c.wmu.Unlock()
	err := c.nc.Close()
	<-c.readerDone
	return err
}

// --- internals ---

// write serializes one frame onto the connection.
func (c *Client) write(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(c.nc, typ, payload); err != nil {
		c.fail(err)
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// request sends a frame whose reply is a tagged OK/Error.
func (c *Client) request(typ byte, payload []byte) error {
	fields, err := wire.DecodeBag(payload, 1)
	if err != nil {
		return err
	}
	tag, _ := wire.Int(fields, 0)
	ack := c.addWaiter(tag)
	defer c.removeWaiter(tag)
	if err := c.write(typ, payload); err != nil {
		return err
	}
	res, err := c.await(ack)
	if err != nil {
		return err
	}
	if res.frame.Type == wire.MsgError {
		return remoteErr(res.frame)
	}
	return nil
}

func (c *Client) addWaiter(tag int64) chan result {
	ch := make(chan result, 1)
	c.mu.Lock()
	c.waiters[tag] = ch
	c.mu.Unlock()
	return ch
}

func (c *Client) removeWaiter(tag int64) {
	c.mu.Lock()
	delete(c.waiters, tag)
	c.mu.Unlock()
}

// await blocks for a one-shot reply or connection death. A reply that
// arrived before the connection died wins: select alone would pick between
// the two at random.
func (c *Client) await(ch chan result) (result, error) {
	select {
	case res := <-ch:
		return res, res.err
	case <-c.readerDone:
		select {
		case res := <-ch:
			return res, res.err
		default:
			return result{}, fmt.Errorf("%w: %v", ErrClosed, c.Err())
		}
	}
}

func (c *Client) dropSession(tag int64) {
	c.mu.Lock()
	delete(c.sessions, tag)
	delete(c.waiters, tag)
	c.mu.Unlock()
}

// fail records the terminal error once.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// readLoop dispatches inbound frames until the connection dies, then
// finalizes every outstanding session and waiter. Row frames are collected
// into a run — consecutive rows of one session — and handed over by flush
// (see the package comment for when).
func (c *Client) readLoop(r *wire.Reader) {
	var (
		run  []Row
		runH *SessionHandle // the run's session; nil between runs
		rows wire.RowDecoder
	)
	flush := func() {
		if len(run) > 0 {
			runH.deliver(run)
			clear(run)
			run = run[:0]
		}
	}
	defer func() {
		flush()
		c.mu.Lock()
		c.closed = true
		if c.err == nil {
			c.err = ErrClosed
		}
		sessions := c.sessions
		c.sessions = make(map[int64]*SessionHandle)
		waiters := c.waiters
		c.waiters = make(map[int64]chan result)
		err := c.err
		c.mu.Unlock()
		for _, h := range sessions {
			h.end(nil)
		}
		for _, ch := range waiters {
			select {
			case ch <- result{err: fmt.Errorf("%w: %v", ErrClosed, err)}:
			default:
			}
		}
		close(c.readerDone)
	}()
	for {
		if !r.FrameBuffered() {
			flush() // the next read may block: nothing may wait behind it
		}
		f, err := r.Next()
		if err != nil {
			c.fail(err)
			return
		}
		if f.Type == wire.MsgRow {
			wr, err := rows.DecodeRow(f.Payload)
			if err != nil {
				continue // unreadable: its session simply does not get it
			}
			if runH == nil || wr.Tag != runH.tag {
				flush()
				c.mu.Lock()
				runH = c.sessions[wr.Tag]
				c.mu.Unlock()
				if runH == nil {
					continue // nobody's session
				}
			}
			run = append(run, Row{At: time.Duration(wr.AtNs), Source: wr.Source, Value: wr.Value})
			if len(run) >= c.recvBuf {
				flush()
			}
			continue
		}
		flush()    // a session's rows stay ahead of its Done,
		runH = nil // which retires it
		switch f.Type {
		case wire.MsgDone:
			c.dispatchDone(f)
		case wire.MsgPong:
			if fields, err := wire.DecodeBag(f.Payload, 1); err == nil {
				nonce, _ := wire.Int(fields, 0)
				select {
				case c.pongs <- nonce:
				default:
				}
			}
		case wire.MsgDraining:
			c.drainOnce.Do(func() { close(c.Draining) })
		case wire.MsgSubmitted, wire.MsgOK, wire.MsgError:
			fields, err := wire.DecodeBag(f.Payload, 1)
			if err != nil {
				continue
			}
			tag, err := wire.Int(fields, 0)
			if err != nil {
				continue
			}
			c.deliver(tag, result{frame: f})
		}
	}
}

// maxFreeRows bounds the client's free list of row slices: four pipelined
// sessions' worth.
const maxFreeRows = 8

// getRows returns an empty recycled row slice, nil when there is none (the
// first append then sizes one).
func (c *Client) getRows() []Row {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	n := len(c.freeRows)
	if n == 0 {
		return nil
	}
	rows := c.freeRows[n-1]
	c.freeRows[n-1] = nil
	c.freeRows = c.freeRows[:n-1]
	return rows
}

// putRows takes back a row slice whose slots are all zero.
func (c *Client) putRows(rows []Row) {
	if cap(rows) == 0 {
		return
	}
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	if len(c.freeRows) < maxFreeRows {
		c.freeRows = append(c.freeRows, rows[:0])
	}
}

// deliver hands a one-shot reply to its waiter (dropped if none: a late
// reply to an abandoned request). The waiter reads the frame after the
// reader has moved on, so it gets a copy of the payload, which otherwise
// lives in the reader's buffer only until the next frame.
func (c *Client) deliver(tag int64, res result) {
	c.mu.Lock()
	ch := c.waiters[tag]
	c.mu.Unlock()
	if ch != nil {
		res.frame.Payload = bytes.Clone(res.frame.Payload)
		select {
		case ch <- res:
		default:
		}
	}
}

// dispatchDone finalizes a session with its terminal record.
func (c *Client) dispatchDone(f wire.Frame) {
	fields, err := wire.DecodeBag(f.Payload, 5)
	if err != nil {
		return
	}
	tag, err := wire.Int(fields, 0)
	if err != nil {
		return
	}
	state, _ := wire.Str(fields, 1)
	msg, _ := wire.Str(fields, 2)
	makespan, _ := wire.Int(fields, 3)
	rows, _ := wire.Int(fields, 4)
	c.mu.Lock()
	h := c.sessions[tag]
	delete(c.sessions, tag)
	c.mu.Unlock()
	if h == nil {
		return
	}
	h.end(&Done{State: state, Err: msg, Makespan: time.Duration(makespan), Rows: rows})
}

// remoteErr converts an Error frame into an error.
func remoteErr(f wire.Frame) error {
	fields, err := wire.DecodeBag(f.Payload, 2)
	if err != nil {
		return err
	}
	msg, _ := wire.Str(fields, 1)
	return fmt.Errorf("server: %s", msg)
}
