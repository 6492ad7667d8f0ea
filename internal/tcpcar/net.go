package tcpcar

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"scsq/internal/carrier"
	"scsq/internal/vtime"
)

// NetFabric is a TCP carrier that really transports frames over loopback
// sockets — one TCP connection per stream, a length-prefixed frame
// protocol, credit-based flow control, and a listener-side demultiplexer —
// while charging exactly the same virtual-time hardware model as the
// in-process Fabric. It exists to exercise the actual network stack
// (framing, partial reads, connection lifecycle); virtual-time results
// match the in-process carrier within the engine's pacing horizon, because
// all cost charging happens sender-side and the computed arrival timestamp
// travels with the frame.
type NetFabric struct {
	inner *Fabric

	mu       sync.Mutex
	ln       net.Listener
	channels map[uint64]*netChannel
	nextChan uint64
	conns    []net.Conn
	closed   bool
	wg       sync.WaitGroup
}

// netChannel couples a receiver inbox with the sender's flow-control
// credits: the bridge returns one credit per frame it hands to the inbox,
// so a sender can have at most the window's worth of frames in flight —
// the same backpressure the in-process carrier gets from the bounded
// inbox. Without this, socket buffering would let a producer run far
// ahead in wall-clock time and perturb the virtual schedule.
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
	conns := append([]net.Conn(nil), f.conns...)
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

func (f *NetFabric) channelFor(id uint64) (*netChannel, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.channels[id]
	return ch, ok
}

func (f *NetFabric) track(c net.Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.conns = append(f.conns, c)
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
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 1<<16)
	var id uint64
	if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
		return
	}
	ch, ok := f.channelFor(id)
	if !ok {
		return
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
				ch.inbox <- carrier.Delivered{Frame: carrier.Frame{Source: lastSource, Last: true}}
			}
			// Unblock a sender stuck waiting for credits.
			close(ch.credits)
			return
		}
		lastSource = d.Source
		ch.inbox <- d
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
		return nil, fmt.Errorf("tcpcar: dial %s: %w", f.Addr(), err)
	}
	f.track(sock)
	w := bufio.NewWriterSize(sock, 1<<16)
	if err := binary.Write(w, binary.LittleEndian, id); err != nil {
		sock.Close()
		return nil, err
	}
	c := &NetConn{link: link, sock: sock, w: w, credits: ch.credits}
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
	<-c.credits // flow control: at most a window's worth of frames in flight
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
func (c *NetConn) Abort() { _ = c.sock.Close() }

// Close implements carrier.Conn.
func (c *NetConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	_ = c.link.Close()
	return c.sock.Close()
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

func readFrame(r io.Reader) (carrier.Delivered, error) {
	var d carrier.Delivered
	var srcLen uint32
	if err := binary.Read(r, binary.LittleEndian, &srcLen); err != nil {
		return d, err
	}
	if srcLen > 1<<16 {
		return d, fmt.Errorf("tcpcar: implausible source length %d", srcLen)
	}
	src := make([]byte, srcLen)
	if _, err := io.ReadFull(r, src); err != nil {
		return d, err
	}
	d.Source = string(src)
	var ready, at uint64
	if err := binary.Read(r, binary.LittleEndian, &ready); err != nil {
		return d, err
	}
	if err := binary.Read(r, binary.LittleEndian, &at); err != nil {
		return d, err
	}
	d.Ready = vtime.Time(ready)
	d.At = vtime.Time(at)
	if err := binary.Read(r, binary.LittleEndian, &d.Offset); err != nil {
		return d, err
	}
	var flags byte
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return d, err
	}
	d.Last = flags&1 != 0
	d.ViaTCP = flags&2 != 0
	d.Down = flags&4 != 0
	if d.Down {
		var errLen uint32
		if err := binary.Read(r, binary.LittleEndian, &errLen); err != nil {
			return d, err
		}
		if errLen > 1<<16 {
			return d, fmt.Errorf("tcpcar: implausible down-error length %d", errLen)
		}
		msg := make([]byte, errLen)
		if _, err := io.ReadFull(r, msg); err != nil {
			return d, err
		}
		d.DownErr = string(msg)
	}
	var payloadLen uint32
	if err := binary.Read(r, binary.LittleEndian, &payloadLen); err != nil {
		return d, err
	}
	if payloadLen > 1<<30 {
		return d, fmt.Errorf("tcpcar: implausible payload length %d", payloadLen)
	}
	if payloadLen > 0 {
		// Pooled: the receiver driver recycles the buffer once the frame's
		// bytes have been materialized.
		d.Payload = carrier.GetBuf(int(payloadLen))
		d.Pooled = true
		if _, err := io.ReadFull(r, d.Payload); err != nil {
			return d, err
		}
	}
	return d, nil
}
