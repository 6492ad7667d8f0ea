// Package client is the typed Go client of the SCSQL wire protocol: the
// programmatic face of scsq-server used by the shell (in both of its
// modes), the serve load generator, and the server's own tests. One Client
// multiplexes any number of pipelined sessions over a single connection; a
// background reader dispatches tagged frames to per-session queues.
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
	// "failed").
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
	cond      sync.Cond // on mu: the reader waits for room, the consumer for rows, Submit for ack
	pending   []Row     // handed over by the reader, at most recvBuf rows
	ended     bool      // nothing more will be handed over
	cancelled bool
	ack       reply // the server's answer to the Submit; zero until it lands
	fin       *Done // &done once the server's Done record landed
	done      Done
}

// Client is one connection to an scsq-server.
type Client struct {
	nc net.Conn

	wmu  sync.Mutex // serializes writers (Submit, Cancel, Close)
	wbuf []byte     // under wmu: the frame being written

	mu       sync.Mutex
	cond     sync.Cond // on mu: a Cancel waits for its reply
	sessions map[int64]*SessionHandle
	cancels  map[int64]*reply // tag → the reply a Cancel waits for; zero until it lands
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
}

// reply is the decoded answer to a tagged request: Submitted carries the
// session id, Error its message as err, OK nothing.
type reply struct {
	typ  byte
	text string
	err  error // the server's, or the frame was unreadable
}

// finalStates are the states a Done record carries: its state field reads
// as one of them without a copy.
var finalStates = []string{"done", "cancelled", "failed"}

// Dial connects and hands the connection to New.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultDialTimeout
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
	return New(nc, opts)
}

// defaultDialTimeout is Options.DialTimeout when it is left zero.
const defaultDialTimeout = 10 * time.Second

// New runs the Hello exchange over an established transport — a dialled
// socket, or one end of an in-process pipe to Server.Serve — and starts
// the reader. opts.DialTimeout bounds the wait for the server's answer;
// opts.TLS is not consulted. On error New closes nc.
func New(nc net.Conn, opts Options) (_ *Client, err error) {
	defer func() {
		if err != nil {
			nc.Close()
		}
	}()
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultDialTimeout
	}
	if opts.RecvBuffer <= 0 {
		opts.RecvBuffer = 256
	}
	c := &Client{
		nc:         nc,
		sessions:   make(map[int64]*SessionHandle),
		cancels:    make(map[int64]*reply),
		readerDone: make(chan struct{}),
		recvBuf:    opts.RecvBuffer,
		Draining:   make(chan struct{}),
	}
	c.cond.L = &c.mu
	e := c.begin(wire.MsgHello)
	if err := c.flush(e.Int(wire.ProtoVersion).Str(opts.Token)); err != nil {
		return nil, err
	}
	r := wire.NewReader(nc, opts.MaxFrame)
	nc.SetReadDeadline(time.Now().Add(opts.DialTimeout))
	f, err := r.Next()
	nc.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	fs := wire.Fields(f.Payload, 2)
	fs.Int() // Accepted's version, Error's tag
	switch f.Type {
	case wire.MsgAccepted:
		c.ServerName, c.ConnID = fs.Str(), fs.Str()
		if err := fs.Err(); err != nil {
			return nil, err
		}
	case wire.MsgError:
		msg := fs.Str()
		if fs.Err() != nil {
			msg = "unreadable error"
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
	h := &SessionHandle{c: c, tag: c.tagSeq}
	h.cond.L = &h.mu
	c.sessions[h.tag] = h
	c.mu.Unlock()

	e := c.begin(wire.MsgSubmit)
	err := c.flush(e.Int(h.tag).Str(stmt).Int(int64(priority)))
	h.mu.Lock() // the reader hands the server's answer over here
	for err == nil && h.ack.typ == 0 && !h.ended {
		h.cond.Wait()
	}
	r := h.ack
	h.mu.Unlock()
	switch {
	case err != nil:
	case r.typ == wire.MsgSubmitted && r.err == nil:
		h.ID = r.text
		return h, nil
	case r.typ == 0:
		err = fmt.Errorf("%w: %v", ErrClosed, c.Err())
	case r.typ == wire.MsgOK:
		err = fmt.Errorf("client: unexpected reply %#x to submit", r.typ)
	default:
		err = r.err
	}
	c.mu.Lock()
	delete(c.sessions, h.tag)
	c.mu.Unlock()
	return nil, err
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
	if fin != nil {
		h.done, h.fin = *fin, &h.done
	}
	h.ended = true
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
	return h.c.cancel(h.tag, "")
}

// CancelID cancels one of this connection's sessions by its server-side
// session id (the shell's \cancel q3). The server scopes
// the lookup to the issuing connection: a client cannot cancel another
// connection's queries.
func (c *Client) CancelID(id string) error {
	return c.cancel(-1, id)
}

// Err returns the connection's terminal error (nil while healthy).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close sends a Goodbye and closes the connection. In-flight sessions end
// with ErrClosed-style terminal records.
func (c *Client) Close() error {
	e := c.begin(wire.MsgGoodbye)
	c.flush(&e)
	err := c.nc.Close()
	<-c.readerDone
	return err
}

// --- internals ---

// begin takes the write lock and opens a frame of type typ in the client's
// write buffer; the caller appends its fields and calls flush.
func (c *Client) begin(typ byte) wire.Encoder {
	c.wmu.Lock()
	return wire.Begin(c.wbuf[:0], typ)
}

// flush seals the frame begin opened, writes it and releases the lock. A
// buffer grown by a long statement is not kept.
func (c *Client) flush(e *wire.Encoder) error {
	defer c.wmu.Unlock()
	c.wbuf = e.End()
	_, err := c.nc.Write(c.wbuf)
	if cap(c.wbuf) > 64<<10 {
		c.wbuf = nil
	}
	if err != nil {
		c.fail(err)
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// cancel sends a Cancel by tag or, with tag -1, by session id and waits for
// the tagged OK or Error. A reply that landed before the connection died
// wins.
func (c *Client) cancel(tag int64, id string) error {
	var r reply
	c.mu.Lock()
	c.cancels[tag] = &r
	c.mu.Unlock()
	e := c.begin(wire.MsgCancel)
	err := c.flush(e.Int(tag).Str(id))
	c.mu.Lock()
	defer c.mu.Unlock()
	for err == nil && r.typ == 0 && !c.closed {
		c.cond.Wait()
	}
	delete(c.cancels, tag)
	switch {
	case err != nil:
		return err
	case r.typ == 0:
		return fmt.Errorf("%w: %v", ErrClosed, c.err)
	}
	return r.err
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
// finalizes every outstanding session and wakes every Cancel. Row frames
// are collected into a run — consecutive rows of one session — and handed
// over by flush (see the package comment for when).
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
		c.mu.Unlock()
		c.cond.Broadcast()
		for _, h := range sessions {
			h.end(nil)
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
			c.dispatchDone(f.Payload)
		case wire.MsgDraining:
			c.drainOnce.Do(func() { close(c.Draining) })
		case wire.MsgSubmitted, wire.MsgOK, wire.MsgError:
			fs := wire.Fields(f.Payload, 1)
			tag, r := fs.Int(), reply{typ: f.Type}
			if f.Type != wire.MsgOK {
				r.text = fs.Str() // the session id, the message
			}
			if r.err = fs.Err(); r.err == nil && f.Type == wire.MsgError {
				r.err = errors.New(r.text) // "server: …" where the server is the cause
			}
			c.deliver(tag, r) // an unreadable tag reads as 0: nobody's
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

// deliver hands a one-shot reply to the Cancel waiting for it, or else to the
// Submit of the tag's session; a late reply to an abandoned request is
// dropped.
func (c *Client) deliver(tag int64, r reply) {
	c.mu.Lock()
	w, h := c.cancels[tag], c.sessions[tag]
	if w != nil && w.typ == 0 {
		*w = r
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	if w == nil && h != nil {
		h.mu.Lock()
		if h.ack.typ == 0 {
			h.ack = r
		}
		h.mu.Unlock()
		h.cond.Broadcast()
	}
}

// dispatchDone finalizes a session with its terminal record.
func (c *Client) dispatchDone(payload []byte) {
	fs := wire.Fields(payload, 5)
	tag := fs.Int()
	fin := Done{State: fs.Intern(finalStates), Err: fs.Str(), Makespan: time.Duration(fs.Int()), Rows: fs.Int()}
	if fs.Err() != nil {
		return
	}
	c.mu.Lock()
	h := c.sessions[tag]
	delete(c.sessions, tag)
	c.mu.Unlock()
	if h != nil {
		h.end(&fin)
	}
}
