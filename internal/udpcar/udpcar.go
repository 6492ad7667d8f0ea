// Package udpcar implements the UDP stream carrier variant the paper's
// hardware offers (§2.1: communication with the Linux clusters utilizes
// I/O nodes that provide TCP or UDP). UDP transport is best-effort:
// datagrams may be dropped at the overloaded I/O node, so a bandwidth
// measurement that counts arrays observes the loss directly.
//
// The cost model matches the TCP carrier's inbound path (back-end NIC →
// I/O-node forwarder → tree network), except that a dropped frame consumes
// the sender-side costs but never reaches the receiver. Loss is
// deterministic — a hash of the connection id and frame sequence number
// against the configured loss rate — so experiments are reproducible.
// End-of-stream frames are always delivered (the engine's termination
// protocol runs over the reliable control channel the paper's RPs maintain
// for control messages).
package udpcar

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/tcpcar"
	"scsq/internal/vtime"
)

// Fabric charges UDP transfers against a hardware environment.
type Fabric struct {
	env      *hw.Env
	inj      *chaos.Injector
	reg      *metrics.Registry
	lossRate float64
	nextID   atomic.Int64
}

// NewFabric returns a UDP fabric with the given datagram loss rate in
// [0, 1).
func NewFabric(env *hw.Env, lossRate float64) (*Fabric, error) {
	if lossRate < 0 || lossRate >= 1 {
		return nil, fmt.Errorf("udpcar: loss rate must be in [0,1), got %v", lossRate)
	}
	return &Fabric{env: env, lossRate: lossRate}, nil
}

// Env returns the underlying hardware environment.
func (f *Fabric) Env() *hw.Env { return f.env }

// SetInjector attaches a chaos injector consulted on every dial and send.
// It must be called before the first Dial; a nil injector disables
// injection.
func (f *Fabric) SetInjector(inj *chaos.Injector) { f.inj = inj }

// SetMetrics attaches a telemetry registry: every connection records
// per-link frame/byte counters, loss counts, and delivery-latency
// histograms. It must be called before the first Dial; nil disables
// recording.
func (f *Fabric) SetMetrics(reg *metrics.Registry) { f.reg = reg }

// Conn is a UDP stream connection from a back-end node into the BlueGene.
type Conn struct {
	fabric   *Fabric
	id       int64
	src, dst tcpcar.Endpoint
	inbox    carrier.Inbox

	// Resolved once at Dial; the per-datagram path charges them directly.
	srcNode *hw.Node
	ion     *hw.IONode

	srcRef, dstRef chaos.NodeRef
	abort          chan struct{}
	abortOnce      sync.Once

	// Metric handles resolved once at Dial; nil-safe no-ops without a
	// registry.
	mFrames  *metrics.Counter
	mBytes   *metrics.Counter
	mDrops   *metrics.Counter
	hDeliver *metrics.Histogram

	mu      sync.Mutex
	seq     uint64
	dropped int64
	sent    int64
	closed  bool
}

var _ carrier.Conn = (*Conn)(nil)

// Dial opens a UDP connection from src (a back-end node) to dst (a BG
// compute node), delivering into inbox.
func (f *Fabric) Dial(src, dst tcpcar.Endpoint, inbox carrier.Inbox) (*Conn, error) {
	if src.Cluster != hw.BackEnd || dst.Cluster != hw.BlueGene {
		return nil, fmt.Errorf("udpcar: only back-end → BlueGene streams use UDP, got %s -> %s", src, dst)
	}
	srcRef := chaos.NodeRef{Cluster: src.Cluster, Node: src.Node}
	dstRef := chaos.NodeRef{Cluster: dst.Cluster, Node: dst.Node}
	if err := f.inj.Dial(srcRef, dstRef); err != nil {
		return nil, fmt.Errorf("udpcar: %w", err)
	}
	srcNode, err := f.env.Node(src.Cluster, src.Node)
	if err != nil {
		return nil, fmt.Errorf("udpcar: %w", err)
	}
	ion, err := f.env.IONodeFor(dst.Node)
	if err != nil {
		return nil, fmt.Errorf("udpcar: %w", err)
	}
	id := f.nextID.Add(1)
	f.env.RegisterInbound(src.Node, ion.ID)
	c := &Conn{
		fabric: f, id: id, src: src, dst: dst, inbox: inbox,
		srcNode: srcNode, ion: ion,
		srcRef: srcRef, dstRef: dstRef,
		abort: make(chan struct{}),
	}
	if f.reg != nil {
		link := fmt.Sprintf("udp:%s->%s", src, dst)
		c.mFrames = f.reg.Counter("link.frames." + link)
		c.mBytes = f.reg.Counter("link.bytes." + link)
		c.mDrops = f.reg.Counter("link.drops." + link)
		c.hDeliver = f.reg.Histogram("link.deliver_vt.udp")
	}
	return c, nil
}

// Send implements carrier.Conn. Dropped frames consume sender-side costs
// but are not delivered; Last frames always arrive.
func (c *Conn) Send(fr carrier.Frame) (vtime.Time, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		carrier.Recycle(&fr)
		return 0, carrier.ErrClosed
	}
	seq := c.seq
	c.seq++
	c.sent++
	c.mu.Unlock()

	// Once Send is called the carrier owns the frame, success or failure:
	// every error path recycles a pooled payload, so senders never touch it
	// again (a retry re-pools a fresh copy).
	select {
	case <-c.abort:
		carrier.Recycle(&fr)
		return 0, fmt.Errorf("udpcar: %s->%s aborted: %w", c.src, c.dst, carrier.ErrClosed)
	default:
	}
	v := c.fabric.inj.OnSend(c.srcRef, c.dstRef, seq, fr.Ready, len(fr.Payload), fr.Last)
	if v.Err != nil {
		carrier.Recycle(&fr)
		return 0, fmt.Errorf("udpcar: %w", v.Err)
	}
	if v.CorruptByte >= 0 {
		fr.Payload[v.CorruptByte] ^= 0xff
	}

	env := c.fabric.env
	m := env.Cost
	s := len(fr.Payload)
	owner := carrier.QueryOf(fr.Source)

	// The datagram always leaves the back-end NIC.
	nicSvc := m.BeMsgCost + vtime.Duration(m.BeNICByte*float64(s))
	_, senderFree := c.srcNode.NIC.UseAs(owner, fr.Ready, nicSvc)

	if !fr.Last && (v.Drop || c.fabric.drop(c.id, seq)) {
		c.mu.Lock()
		c.dropped++
		c.mu.Unlock()
		c.mDrops.Inc()
		// The frame never reaches a receiver driver, so its pooled payload
		// must be recycled here.
		carrier.Recycle(&fr)
		return senderFree, nil
	}

	fwdSvc := vtime.Duration(m.IOByte * float64(s))
	if p := env.StreamsOnIO(c.ion.ID); p > 1 {
		fwdSvc += vtime.Duration(float64(m.IOSwitchCost) * float64(p-1) / float64(p))
	}
	if peers := env.DistinctBeNodes(); peers > 1 {
		fwdSvc += vtime.Duration(peers-1) * m.CiodPeerCost
	}
	_, t := c.ion.Forwarder.UseAs(owner, senderFree, fwdSvc)
	_, arrived := c.ion.Tree.UseAs(owner, t, vtime.Duration(m.TreeByte*float64(s)))
	if fr.TraceID != 0 {
		fr.Hops = append(fr.Hops,
			carrier.Hop{Name: "nic " + c.src.String(), At: senderFree},
			carrier.Hop{Name: fmt.Sprintf("iofwd io:%d", c.ion.ID), At: t},
			carrier.Hop{Name: fmt.Sprintf("tree io:%d", c.ion.ID), At: arrived},
		)
	}

	ready := fr.Ready
	select {
	case c.inbox <- carrier.Delivered{Frame: fr, At: arrived.Add(v.Delay), ViaTCP: true}:
	case <-c.abort:
		carrier.Recycle(&fr)
		return senderFree, fmt.Errorf("udpcar: %s->%s aborted: %w", c.src, c.dst, carrier.ErrClosed)
	}
	c.mFrames.Inc()
	c.mBytes.Add(int64(s))
	c.hDeliver.Observe(arrived.Add(v.Delay).Sub(ready))
	return senderFree, nil
}

// Abort unblocks a Send stalled on flow control and fails subsequent
// deliveries; the connection is torn without cooperation from the consumer.
func (c *Conn) Abort() {
	c.abortOnce.Do(func() { close(c.abort) })
}

// Close implements carrier.Conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// Stats reports sent and dropped frame counts.
func (c *Conn) Stats() (sent, dropped int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent, c.dropped
}

// drop decides deterministically whether frame seq of connection id is
// lost, by hashing into [0,1) and comparing with the loss rate.
func (f *Fabric) drop(id int64, seq uint64) bool {
	if f.lossRate <= 0 {
		return false
	}
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(id >> (8 * i))
		buf[8+i] = byte(seq >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	u := float64(h.Sum64()>>11) / float64(1<<53)
	return u < f.lossRate
}
