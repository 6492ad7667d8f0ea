package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"scsq"
	"scsq/internal/server/wire"
	"scsq/internal/vtime"
)

// connState labels a connection's lifecycle for sys_conns.
type connState int32

const (
	connHandshake connState = iota
	connOpen
	connDraining
	connClosed
)

func (s connState) String() string {
	return [...]string{"handshake", "open", "draining", "closed"}[s]
}

// chunk is one queued unit of outbound bytes: whole frames, back to back,
// that the writer puts on the socket with a single Write. A control frame
// travels in a chunk of its own; a session's pump packs the rows of one
// ready batch into a chunk. Its life is pump (or send) → out queue → writer
// → pool; whoever holds it owns it, and nobody touches it after handing it
// on.
type chunk struct {
	buf    []byte
	frames int64 // frames in buf, credited to the counters once written
	rows   int64 // how many of them are Row frames
}

const (
	// chunkFlush is the size past which a pump hands its chunk to the
	// writer without waiting for the batch to end: it bounds what one
	// session can hold back and what writeQueue chunks can pin.
	chunkFlush = 16 << 10
	// maxPooledChunk keeps a buffer grown by one large row (a 300 kB array)
	// out of the pool, where it would be pinned behind 40-byte frames.
	maxPooledChunk = 64 << 10
	// maxFreeChunks bounds the pool: at most 4 MiB of buffers kept.
	maxFreeChunks = 64
)

// chunkPool recycles chunks across all connections. New chunks start with
// no buffer and grow by append, so a connection that only ever sends a few
// small frames never pays for a chunkFlush-sized one. It is a bounded free
// list, not a sync.Pool: a sync.Pool is emptied every other collection, and
// a server whose finished sessions leave nothing behind keeps a small heap
// and collects often — regrowing its chunks by append after each collection
// measured +3 % of the bytes allocated per 2 000-row session.
var chunkPool struct {
	mu   sync.Mutex
	free []*chunk
}

func getChunk() *chunk {
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	n := len(chunkPool.free)
	if n == 0 {
		return new(chunk)
	}
	ch := chunkPool.free[n-1]
	chunkPool.free[n-1] = nil
	chunkPool.free = chunkPool.free[:n-1]
	return ch
}

func putChunk(ch *chunk) {
	if cap(ch.buf) > maxPooledChunk {
		return
	}
	*ch = chunk{buf: ch.buf[:0]}
	chunkPool.mu.Lock()
	defer chunkPool.mu.Unlock()
	if len(chunkPool.free) < maxFreeChunks {
		chunkPool.free = append(chunkPool.free, ch)
	}
}

// conn is one client connection: a reader goroutine decoding and
// dispatching request frames, a writer goroutine flushing the bounded out
// queue, and one pump goroutine per live session streaming its results.
//
// Teardown is single-shot (closeOnce): the closing flag flips under mu
// (fencing session registration), close(dead) unblocks every sender, the
// writer flushes what is already queued and exits, the transport closes
// (unblocking the reader), and every live session is cancelled — which is
// what releases its node leases, exactly once, through the scheduler's
// claim-by-removal finalization.
type conn struct {
	srv *Server
	id  int64
	nc  net.Conn

	out    chan *chunk
	dead   chan struct{}
	wrDone chan struct{} // closed when writeLoop returns (queue flushed)

	closeOnce sync.Once
	state     atomic.Int32

	mu       sync.Mutex
	closing  bool                   // set by close() before it cancels/waits
	sessions map[int64]*connSession // by client-chosen tag; evicted at Done

	pumps sync.WaitGroup

	// sys_conns counters.
	nSubmitted atomic.Int64
	nRowsOut   atomic.Int64
	nFramesIn  atomic.Int64
	nFramesOut atomic.Int64
}

// connSession is one live session bound to a connection tag.
type connSession struct {
	tag  int64
	sess *scsq.Session
	done atomic.Bool // the pump is queuing the Done frame: the tag is free again
}

func newConn(s *Server, id int64, nc net.Conn) *conn {
	return &conn{
		srv:      s,
		id:       id,
		nc:       nc,
		out:      make(chan *chunk, writeQueue),
		dead:     make(chan struct{}),
		wrDone:   make(chan struct{}),
		sessions: make(map[int64]*connSession),
	}
}

// stats snapshots the sys_conns row fields.
func (c *conn) stats() (id, remote, state string, sessions, submitted, rowsOut, framesIn, framesOut int64) {
	return fmt.Sprintf("c%d", c.id), c.nc.RemoteAddr().String(),
		connState(c.state.Load()).String(), int64(c.liveSessions()), c.nSubmitted.Load(),
		c.nRowsOut.Load(), c.nFramesIn.Load(), c.nFramesOut.Load()
}

// liveSessions counts sessions whose Done frame has not been queued yet:
// the pump evicts a session only after queuing it.
func (c *conn) liveSessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

// sendChunk hands a chunk to the writer, blocking when the queue is full —
// the backpressure path — and reports false once the connection is dead.
// Either way the caller has given the chunk up.
func (c *conn) sendChunk(ch *chunk) bool {
	select {
	case c.out <- ch:
		return true
	case <-c.dead:
		putChunk(ch)
		return false
	}
}

// control opens a control frame of type typ in a chunk of its own; the
// caller appends its fields and hands both to send.
func control(typ byte) (*chunk, wire.Encoder) {
	ch := getChunk()
	ch.frames = 1
	return ch, wire.Begin(ch.buf, typ)
}

// send seals a control frame and queues it; see sendChunk.
func (c *conn) send(ch *chunk, e *wire.Encoder) bool {
	ch.buf = e.End()
	return c.sendChunk(ch)
}

// sendErr queues an Error frame for the given tag (-1: connection-level).
func (c *conn) sendErr(tag int64, err error) {
	ch, e := control(wire.MsgError)
	c.send(ch, e.Int(tag).Str(err.Error()))
}

// writeChunk puts one chunk on the transport with a single Write and, only
// once that succeeded, credits the counters with the frames it carried.
func (c *conn) writeChunk(ch *chunk) error {
	_, err := c.nc.Write(ch.buf)
	if err == nil {
		c.nFramesOut.Add(ch.frames)
		c.nRowsOut.Add(ch.rows)
		c.srv.mFramesOut.Add(ch.frames)
	}
	putChunk(ch)
	return err
}

// writeLoop flushes queued chunks to the transport until the connection
// dies. A write error tears the connection down: the peer is gone. The
// teardown runs in its own goroutine because close() waits on wrDone —
// calling it from here would deadlock the flush handshake.
func (c *conn) writeLoop() {
	defer close(c.wrDone)
	for {
		select {
		case ch := <-c.out:
			if err := c.writeChunk(ch); err != nil {
				// Track the teardown goroutine in the server's WaitGroup:
				// otherwise Drain's wg.Wait() can return while this close is
				// still running and a stale sys_conns row survives the drain.
				c.srv.wg.Add(1)
				go func() {
					defer c.srv.wg.Done()
					c.close(err)
				}()
				return
			}
		case <-c.dead:
			// Flush what is already queued so a Goodbye/Done race still
			// delivers terminal frames, then stop.
			for {
				select {
				case ch := <-c.out:
					if c.writeChunk(ch) != nil {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// readLoop performs the handshake, then decodes and dispatches request
// frames until the connection dies.
func (c *conn) readLoop() {
	defer c.close(nil)
	r := wire.NewReader(c.nc, c.srv.cfg.MaxFrame)

	if err := c.handshake(r); err != nil {
		// Written synchronously: the writer carries no traffic before the
		// handshake completes (the first queued frame is Accepted, on the
		// success path), so the rejection cannot interleave with it, and the
		// client is guaranteed the diagnostic before the deferred close
		// tears the transport down.
		c.nc.SetWriteDeadline(time.Now().Add(time.Second))
		ch, e := control(wire.MsgError)
		ch.buf = e.Int(-1).Str(err.Error()).End()
		c.writeChunk(ch)
		return
	}

	for {
		if c.srv.cfg.IdleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
		}
		f, err := r.Next()
		if err != nil {
			return // EOF, deadline, torn frame, oversize: all terminal
		}
		c.nFramesIn.Add(1)
		c.srv.mFramesIn.Inc()
		switch f.Type {
		case wire.MsgSubmit:
			if !c.handleSubmit(f.Payload) {
				return
			}
		case wire.MsgCancel:
			c.handleCancel(f.Payload)
		case wire.MsgPing:
			fs := wire.Fields(f.Payload, 1)
			if nonce := fs.Int(); fs.Err() == nil {
				ch, e := control(wire.MsgPong)
				c.send(ch, e.Int(nonce))
			}
		case wire.MsgGoodbye:
			return
		default:
			c.sendErr(-1, fmt.Errorf("server: unknown message type %#x", f.Type))
		}
	}
}

// handshake enforces the Hello exchange under the handshake deadline:
// version match, then the optional auth hook; it opens the connection.
func (c *conn) handshake(r *wire.Reader) error {
	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	f, err := r.Next()
	if err != nil {
		return fmt.Errorf("%w: %v", wire.ErrNotHello, err)
	}
	c.nFramesIn.Add(1)
	c.srv.mFramesIn.Inc()
	if f.Type != wire.MsgHello {
		return wire.ErrNotHello
	}
	fs := wire.Fields(f.Payload, 2)
	version, token := fs.Int(), fs.Str()
	if err := fs.Err(); err != nil {
		return err
	}
	if version != wire.ProtoVersion {
		return fmt.Errorf("%w: client %d, server %d", wire.ErrVersionMismatch, version, wire.ProtoVersion)
	}
	if c.srv.cfg.Auth != nil {
		if err := c.srv.cfg.Auth(token); err != nil {
			return fmt.Errorf("%w: %v", ErrAuthFailed, err)
		}
	}
	// Open before Accepted is queued: a client whose Dial returned reads
	// its connection open.
	c.state.Store(int32(connOpen))
	ch, e := control(wire.MsgAccepted)
	c.send(ch, e.Int(wire.ProtoVersion).Str(serverName).Str(fmt.Sprintf("c%d", c.id)))
	return nil
}

// handleSubmit binds one statement to a new scheduler session and spawns
// its result pump. Returns false only on malformed payloads (framing is
// intact but the peer is confused; drop the connection).
func (c *conn) handleSubmit(payload []byte) bool {
	fs := wire.Fields(payload, 3)
	tag, stmt, prio := fs.Int(), fs.Str(), fs.Int()
	if err := fs.Err(); err != nil {
		c.sendErr(-1, err)
		return false
	}
	if c.srv.isDraining() && !c.srv.catalogRead(stmt) {
		c.sendErr(tag, ErrDraining)
		return true
	}
	c.mu.Lock()
	if cs, dup := c.sessions[tag]; dup && !cs.done.Load() {
		c.mu.Unlock()
		c.sendErr(tag, fmt.Errorf("server: tag %d already in flight", tag))
		return true
	}
	c.mu.Unlock()

	submitted := time.Now()
	sess, err := c.srv.eng.Submit(stmt, scsq.WithPriority(int(prio)))
	if err != nil {
		c.sendErr(tag, err)
		return true
	}
	c.srv.mSubmits.Inc()
	c.nSubmitted.Add(1)
	cs := &connSession{tag: tag, sess: sess}
	c.mu.Lock()
	if c.closing {
		// close() already snapshotted c.sessions for cancellation and may
		// be past pumps.Wait(): registering now would leak the session's
		// leases forever (and pumps.Add would race the Wait). Cancel it
		// here instead; the leases release through the ordinary path.
		c.mu.Unlock()
		_ = sess.Cancel()
		return false
	}
	c.sessions[tag] = cs
	c.pumps.Add(1)
	c.mu.Unlock()
	ch, e := control(wire.MsgSubmitted)
	c.send(ch, e.Int(tag).Str(sess.ID()))

	c.srv.wg.Add(1)
	go func() {
		defer c.srv.wg.Done()
		defer c.pumps.Done()
		c.pump(cs, submitted)
	}()
	return true
}

// pump streams one session's result elements to the client as Row frames,
// closing with a Done frame carrying the terminal state. It takes the
// elements the session has ready in one batch (NextBatch: up to the end of a
// segment of the result log), encodes the rows back to back into a chunk,
// and hands the chunk to the writer when the batch is exhausted — the
// next read would block, or crosses into the log's next segment — or the
// chunk passes chunkFlush. A row therefore never waits for a later one: the
// first row of a session leaves as soon as it exists, and the log's small
// first segments put the client to work while a long result is still being
// produced. It observes the submit-to-first-row latency into the rt. TTFB
// histogram.
func (c *conn) pump(cs *connSession, submitted time.Time) {
	first := true
	var rows int64
	for {
		batch, ok, err := cs.sess.NextBatch()
		if !ok {
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			ch, e := control(wire.MsgDone)
			e.Int(cs.tag).Str(cs.sess.State().String()).Str(msg).Int(cs.sess.Makespan().Nanoseconds()).Int(rows)
			// The tag is free before the client can know the session is over
			// (it may reuse it the moment it reads the Done frame); the
			// session counts as live until the frame is queued.
			cs.done.Store(true)
			c.send(ch, &e)
			// Evict: this handle is the last the server holds, so the
			// finished session's result log goes with it.
			c.mu.Lock()
			if c.sessions[cs.tag] == cs {
				delete(c.sessions, cs.tag)
			}
			c.mu.Unlock()
			return
		}
		if first {
			first = false
			c.srv.hTTFB.Observe(vtime.Duration(time.Since(submitted)))
		}
		ch := getChunk()
		for i := 0; i < batch.Len(); i++ {
			el := batch.At(i)
			var encErr error
			ch.buf, encErr = wire.AppendRow(ch.buf, cs.tag, el.At.Nanoseconds(), el.Source, el.Value)
			if encErr != nil {
				// Only a value past the format's u32 length fields gets
				// here; reported in-band, in stream order, rather than
				// panicking the server.
				e := wire.Begin(ch.buf, wire.MsgError)
				ch.buf = e.Int(cs.tag).Str(encErr.Error()).End()
				ch.frames++
				continue
			}
			rows++
			ch.rows++
			ch.frames++
			if len(ch.buf) >= chunkFlush && i+1 < batch.Len() {
				c.sendChunk(ch)
				ch = getChunk()
			}
		}
		// A hand-off fails when the connection died mid-stream: the close
		// path cancels the session; keep reading the session so the pump
		// observes the terminal state and exits.
		c.sendChunk(ch)
	}
}

// handleCancel cancels by tag or, when tag is negative, by session id.
// Both forms are scoped to the issuing connection's own sessions: a client
// may cancel only what it submitted, never another connection's queries.
func (c *conn) handleCancel(payload []byte) {
	fs := wire.Fields(payload, 2)
	tag, id := fs.Int(), fs.Str()
	if err := fs.Err(); err != nil {
		c.sendErr(-1, err)
		return
	}
	var target *connSession
	c.mu.Lock()
	if tag >= 0 {
		target = c.sessions[tag]
	} else {
		for _, cs := range c.sessions {
			// A finished catalog read hands its id back, so until its Done
			// frame evicts it, it may share the id with a later session:
			// prefer the one still running.
			if cs.sess.ID() == id && (target == nil || !cs.sess.State().Final()) {
				target = cs
			}
		}
	}
	c.mu.Unlock()
	var err error
	switch {
	case target == nil && tag >= 0:
		err = fmt.Errorf("server: no session with tag %d", tag)
	case target == nil:
		err = fmt.Errorf("server: no session %q on this connection", id)
	default:
		err = target.sess.Cancel()
	}
	if err != nil {
		c.sendErr(tag, err)
		return
	}
	ch, e := control(wire.MsgOK)
	c.send(ch, e.Int(tag))
}

// announceDrain tells the client the server is draining (best-effort).
func (c *conn) announceDrain(grace time.Duration) {
	c.state.Store(int32(connDraining))
	ch, e := control(wire.MsgDraining)
	ch.buf = e.Int(grace.Nanoseconds()).End()
	select { // never blocks the server's control flow
	case c.out <- ch:
	default:
		putChunk(ch)
	}
}

// cancelSessions cancels every session of this connection that has not
// delivered its Done frame yet. Cancelling an already-final session is a
// no-op error, ignored: the pump owns the Done delivery either way.
func (c *conn) cancelSessions() {
	c.mu.Lock()
	css := make([]*connSession, 0, len(c.sessions))
	for _, cs := range c.sessions {
		css = append(css, cs)
	}
	c.mu.Unlock()
	for _, cs := range css {
		if !cs.done.Load() {
			_ = cs.sess.Cancel()
		}
	}
}

// close tears the connection down exactly once: unregister (evicting the
// sys_conns row immediately, even if the client never submitted), set the
// closing fence
// (no session registers after it), mark dead (unblocking senders and
// turning the writer into its flush-and-exit path), wait for the writer to
// flush the already-queued frames — bounded by a write deadline, so a
// stuck peer cannot wedge teardown — close the transport (unblocking the
// reader), cancel the live sessions (releasing their leases through the
// scheduler), and wait for the pumps to observe the terminal states.
// Flushing before nc.Close() is what makes MsgGoodbye and
// Drain deterministic: queued Done/Pong/reply frames reach the peer
// instead of racing the transport close.
func (c *conn) close(cause error) {
	c.closeOnce.Do(func() {
		// Unregister first: a client that disconnects between registration
		// and its first submit must not leave a stale sys_conns row while
		// the rest of teardown (flush, cancel, pump joins) runs.
		c.srv.removeConn(c)
		c.state.Store(int32(connClosed))
		c.mu.Lock()
		c.closing = true
		c.mu.Unlock()
		close(c.dead)
		c.nc.SetWriteDeadline(time.Now().Add(time.Second))
		select {
		case <-c.wrDone:
		case <-time.After(2 * time.Second):
			// Writer stuck past its deadline (shouldn't happen); proceed.
		}
		c.nc.Close()
		c.cancelSessions()
		c.pumps.Wait()
	})
}
