package tcpcar

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync"

	"scsq/internal/carrier"
	"scsq/internal/vtime"
)

// NetFabric is a TCP carrier that really transports frames over loopback
// sockets — one TCP connection per stream, a length-prefixed frame
// protocol, credit-based flow control, and a listener-side demultiplexer —
// while charging exactly the same virtual-time hardware model as the
// in-process Fabric. It exists to exercise the actual network stack
// (framing, partial reads, connection lifecycle). All cost charging happens
// sender-side and the computed arrival timestamp travels with the frame,
// but a frame reaches its inbox from outside the engine's kernel, when the
// host delivers it: virtual-time results match the in-process carrier
// exactly, or differ by the few percent of another order of arrivals.
type NetFabric struct {
	inner *Fabric

	mu       sync.Mutex
	ln       net.Listener
	channels map[uint64]*netChannel
	nextChan uint64
	conns    map[net.Conn]struct{} // every socket not yet closed, both ends
	closed   bool
	wg       sync.WaitGroup
}

// netChannel couples a receiver inbox with the sender's flow-control
// credits: the bridge returns one credit per frame it hands to the inbox,
// so a sender can have at most the window's worth of frames in flight —
// the same backpressure the in-process carrier gets from the bounded
// inbox. Without this, socket buffering would let a producer run far
// ahead in wall-clock time and perturb the virtual schedule. The sender
// waits for a credit outside the kernel (vtime.Wait): the read side returns
// it.
type netChannel struct {
	inbox   carrier.Inbox
	credits chan struct{}
}

// NewNetFabric starts a loopback listener demultiplexing inbound stream
// connections; inner provides the virtual-time charging. Call Close to
// release the listener.
func NewNetFabric(inner *Fabric) (*NetFabric, error) {
	if inner == nil {
		return nil, errors.New("tcpcar: NewNetFabric requires the charging fabric")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcpcar: listen: %w", err)
	}
	f := &NetFabric{
		inner:    inner,
		ln:       ln,
		channels: make(map[uint64]*netChannel),
		conns:    make(map[net.Conn]struct{}),
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the loopback address frames travel through.
func (f *NetFabric) Addr() string { return f.ln.Addr().String() }

// Close stops the listener and tears down every stream connection.
func (f *NetFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	conns := slices.Collect(maps.Keys(f.conns))
	f.mu.Unlock()
	err := f.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	f.wg.Wait()
	return err
}

func (f *NetFabric) registerChannel(inbox carrier.Inbox) (uint64, *netChannel) {
	// One frame in flight per connection: several producers may share the
	// inbox (merge), and the in-process carrier bounds their *combined*
	// in-flight depth by the inbox capacity. A per-connection window of one
	// keeps the socket mode's wall-clock pacing closest to that, which
	// keeps the virtual schedule equivalent.
	const window = 1
	ch := &netChannel{inbox: inbox, credits: make(chan struct{}, window)}
	for i := 0; i < window; i++ {
		ch.credits <- struct{}{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextChan++
	f.channels[f.nextChan] = ch
	return f.nextChan, ch
}

// claimChannel hands the channel registered under id to the one connection
// that presents it, and forgets it: a second connection presenting the same
// id, or an id never registered, finds nothing.
func (f *NetFabric) claimChannel(id uint64) (*netChannel, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.channels[id]
	delete(f.channels, id)
	return ch, ok
}

func (f *NetFabric) track(c net.Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.conns[c] = struct{}{}
}

// closeConn closes a tracked socket and stops tracking it, so a fabric that
// is never closed holds only the sockets of open streams.
func (f *NetFabric) closeConn(c net.Conn) error {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
	return c.Close()
}

// acceptLoop accepts one TCP connection per stream and pumps its frames
// into the registered inbox.
func (f *NetFabric) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.track(conn)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.serveConn(conn)
		}()
	}
}

func (f *NetFabric) serveConn(conn net.Conn) {
	defer func() { _ = f.closeConn(conn) }()
	r := bufio.NewReaderSize(conn, 1<<16)
	var id uint64
	if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
		return
	}
	ch, ok := f.claimChannel(id)
	if !ok {
		return // unknown or already claimed: the stream has its one connection
	}
	lastSource := ""
	for {
		d, err := readFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				// A torn connection mid-stream: deliver a synthetic Last
				// frame so the receiver terminates instead of hanging; a
				// partially transferred object then surfaces as an
				// undecoded-bytes error. The inbox itself stays open — it
				// may be shared by other producers (merge).
				vtime.Send(nil, nil, ch.inbox, carrier.Delivered{Frame: carrier.Frame{Source: lastSource, Last: true}}, 0, nil)
			}
			// Unblock a sender stuck waiting for credits.
			close(ch.credits)
			return
		}
		lastSource = d.Source
		// The frame wakes the consumer parked on the inbox at its arrival
		// time, like an in-process delivery.
		vtime.Send(nil, nil, ch.inbox, d, d.At, nil)
		returnCredit(ch.credits)
		if d.Last {
			return
		}
	}
}

// returnCredit hands a flow-control token back to the sender; a closed
// credit channel (torn connection) is tolerated.
func returnCredit(credits chan struct{}) {
	defer func() { _ = recover() }() // send on closed channel after a tear
	select {
	case credits <- struct{}{}:
	default:
	}
}

// NetConn is a stream connection whose frames travel over a real socket: its
// link charges the route like any TCP connection and then, instead of
// delivering into an inbox, writes the frame with its computed arrival time
// to the socket.
type NetConn struct {
	f       *NetFabric
	link    *Conn
	sock    net.Conn
	w       *bufio.Writer
	credits chan struct{}

	mu     sync.Mutex
	wrote  bool // the current Send put its frame on the wire
	closed bool
}

var _ carrier.Conn = (*NetConn)(nil)

// Dial opens a stream connection from src to dst whose frames cross a real
// loopback socket into inbox.
func (f *NetFabric) Dial(src, dst Endpoint, inbox carrier.Inbox) (*NetConn, error) {
	link, err := f.inner.Dial(src, dst, nil)
	if err != nil {
		return nil, err
	}
	id, ch := f.registerChannel(inbox)
	sock, err := net.Dial("tcp", f.Addr())
	if err != nil {
		f.claimChannel(id) // no connection will present it
		return nil, fmt.Errorf("tcpcar: dial %s: %w", f.Addr(), err)
	}
	f.track(sock)
	// The id goes out at once, so the listener claims the channel whether or
	// not the stream ever sends a frame.
	if _, err := sock.Write(binary.LittleEndian.AppendUint64(nil, id)); err != nil {
		f.claimChannel(id)
		_ = f.closeConn(sock)
		return nil, fmt.Errorf("tcpcar: dial %s: %w", f.Addr(), err)
	}
	w := bufio.NewWriterSize(sock, 1<<16)
	c := &NetConn{f: f, link: link, sock: sock, w: w, credits: ch.credits}
	link.Sink = c.write
	return c, nil
}

// Link returns the charged link under the socket; it names the connection.
func (c *NetConn) Link() *Conn { return c.link }

// Send implements carrier.Conn: the link charges the hardware model, then
// write ships the frame and its computed arrival time over the socket.
func (c *NetConn) Send(fr carrier.Frame) (vtime.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		carrier.Recycle(&fr)
		return 0, carrier.ErrClosed
	}
	// Flow control: at most a window's worth of frames in flight. The
	// credit comes back from the socket's read side, outside the kernel, so
	// the sender waits for it there.
	vtime.Wait(c.link.Sender, vtime.Credit, c.credits, nil)
	c.wrote = false
	senderFree, err := c.link.Send(fr)
	if !c.wrote {
		// A failed or lost frame never reaches the read side, which would
		// have returned its credit.
		returnCredit(c.credits)
	}
	return senderFree, err
}

// write is the link's sink; it runs inside Send, under c.mu.
func (c *NetConn) write(d carrier.Delivered) error {
	c.wrote = true
	// Once the payload bytes are on the wire a pooled buffer goes back —
	// the read side re-materializes the frame into its own pooled buffer.
	defer carrier.Recycle(&d.Frame)
	if err := writeFrame(c.w, d); err != nil {
		return fmt.Errorf("tcpcar: send: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("tcpcar: flush: %w", err)
	}
	return nil
}

// Abort tears the socket: a Send stalled on credits unblocks (the read side
// closes the credit channel on the torn connection) and subsequent Sends
// fail.
func (c *NetConn) Abort() { _ = c.f.closeConn(c.sock) }

// Close implements carrier.Conn.
func (c *NetConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	_ = c.link.Close()
	return c.f.closeConn(c.sock)
}

// Frame wire protocol:
//
//	u32 sourceLen | source bytes | i64 readyNs | i64 arrivalNs | u64 offset |
//	u8 flags (bit0 last, bit1 viaTCP, bit2 down) |
//	[u32 downErrLen | downErr bytes, if bit2] | u32 payloadLen | payload
func writeFrame(w io.Writer, d carrier.Delivered) error {
	hdr := make([]byte, 0, 48)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(d.Source)))
	hdr = append(hdr, d.Source...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.Ready))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.At))
	hdr = binary.LittleEndian.AppendUint64(hdr, d.Offset)
	var flags byte
	if d.Last {
		flags |= 1
	}
	if d.ViaTCP {
		flags |= 2
	}
	if d.Down {
		flags |= 4
	}
	hdr = append(hdr, flags)
	if d.Down {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(d.DownErr)))
		hdr = append(hdr, d.DownErr...)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(d.Payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(d.Payload)
	return err
}

func readFrame(r io.Reader) (d carrier.Delivered, err error) {
	srcLen, err := readLen(r, "source", 1<<16)
	if err != nil {
		return d, err // io.EOF here is the stream's clean end
	}
	defer func() {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the peer closed mid-frame
		}
	}()
	src, err := readBytes(r, srcLen)
	if err != nil {
		return d, err
	}
	d.Source = string(src)
	carrier.PutBuf(src)
	var fixed [25]byte // readyNs, arrivalNs, offset, flags
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return d, err
	}
	d.Ready = vtime.Time(binary.LittleEndian.Uint64(fixed[0:]))
	d.At = vtime.Time(binary.LittleEndian.Uint64(fixed[8:]))
	d.Offset = binary.LittleEndian.Uint64(fixed[16:])
	flags := fixed[24]
	d.Last, d.ViaTCP, d.Down = flags&1 != 0, flags&2 != 0, flags&4 != 0
	if d.Down {
		errLen, err := readLen(r, "down-error", 1<<16)
		if err != nil {
			return d, err
		}
		msg, err := readBytes(r, errLen)
		if err != nil {
			return d, err
		}
		d.DownErr = string(msg)
		carrier.PutBuf(msg)
	}
	payloadLen, err := readLen(r, "payload", 1<<30)
	if err != nil || payloadLen == 0 {
		return d, err
	}
	// Pooled: the receiver driver recycles the buffer once the frame's bytes
	// have been materialized.
	d.Payload, err = readBytes(r, payloadLen)
	d.Pooled = err == nil
	return d, err
}

// readLen reads a u32 length field and rejects one above max.
func readLen(r io.Reader, what string, max uint32) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(b[:])
	if n > max {
		return 0, fmt.Errorf("tcpcar: implausible %s length %d", what, n)
	}
	return int(n), nil
}

// readChunk is the most readBytes leases ahead of the bytes it has read.
const readChunk = 4 << 10

// readBytes reads n bytes into a pooled buffer that grows as they arrive:
// it starts at readChunk and doubles, so a length field claiming far more
// than the peer sends leases at most about twice what was sent. On error the
// buffer goes back to the pool.
func readBytes(r io.Reader, n int) ([]byte, error) {
	buf := carrier.GetBuf(min(n, readChunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, buf[got:])
		got += k
		if err != nil {
			carrier.PutBuf(buf)
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		grown := carrier.GetBuf(min(n, 2*got))
		copy(grown, buf)
		carrier.PutBuf(buf)
		buf = grown
	}
}
