// Package tcpcar implements the TCP stream carrier used whenever a stream
// crosses cluster boundaries (paper §2.3: TCP is always used when
// communicating between clusters; for inbound streaming "we rely on the
// buffering of the TCP stack").
//
// The modeled path for a back-end → BlueGene stream is: back-end node NIC
// (GbE) → I/O node forwarder (the pset's I/O node runs the TCP↔tree
// forwarding on its PowerPC 440) → tree network → receiving compute node.
// The I/O-node stage pays a per-message switching cost when the I/O node
// forwards several concurrent streams, and a partition-wide coordination
// penalty proportional to the number of *distinct* back-end nodes currently
// streaming in — the paper's "coordination problems in the I/O node when
// communicating with many outside nodes" (observation 3, Figure 15).
//
// Streams leaving the BlueGene traverse the same stages outward; streams
// between Linux nodes use the two NICs.
package tcpcar

import (
	"fmt"
	"sync"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/vtime"
)

// Fabric charges TCP transfers against a hardware environment.
type Fabric struct {
	env *hw.Env
	inj *chaos.Injector
	reg *metrics.Registry
}

// NewFabric returns a fabric over env.
func NewFabric(env *hw.Env) *Fabric {
	return &Fabric{env: env}
}

// Env returns the underlying hardware environment.
func (f *Fabric) Env() *hw.Env { return f.env }

// SetInjector attaches a chaos injector consulted on every dial and send.
// It must be called before the first Dial; a nil injector disables
// injection.
func (f *Fabric) SetInjector(inj *chaos.Injector) { f.inj = inj }

// SetMetrics attaches a telemetry registry: every connection records
// per-link frame/byte/drop counters and delivery-latency histograms. It
// must be called before the first Dial; nil disables recording. The socket
// carrier (NetFabric) inherits it through the charging fabric.
func (f *Fabric) SetMetrics(reg *metrics.Registry) { f.reg = reg }

// Endpoint names one side of a TCP connection.
type Endpoint struct {
	Cluster hw.ClusterName
	Node    int
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Cluster, e.Node) }

// Conn is an open TCP connection between two cluster nodes.
type Conn struct {
	fabric   *Fabric
	src, dst Endpoint
	inbox    carrier.Inbox

	// Endpoint resources are resolved once at Dial so the per-frame hot
	// path charges them without repeated environment lookups.
	srcNode *hw.Node
	dstNode *hw.Node
	ion     *hw.IONode // I/O node of the BG side, nil for Linux↔Linux

	srcRef, dstRef chaos.NodeRef
	abort          chan struct{}
	abortOnce      sync.Once

	// Metric handles resolved once at Dial; nil-safe no-ops without a
	// registry.
	mFrames  *metrics.Counter
	mBytes   *metrics.Counter
	mDrops   *metrics.Counter
	hDeliver *metrics.Histogram

	mu     sync.Mutex
	seq    uint64
	closed bool
}

var _ carrier.Conn = (*Conn)(nil)

// Dial opens a TCP connection from src to dst delivering into inbox.
// Inbound BlueGene connections are registered with the environment so the
// coordination penalties can be modeled; the registration outlives Close
// (see Conn.Close).
func (f *Fabric) Dial(src, dst Endpoint, inbox carrier.Inbox) (*Conn, error) {
	if !src.Cluster.Valid() || !dst.Cluster.Valid() {
		return nil, fmt.Errorf("tcpcar: invalid endpoint clusters %q -> %q", src.Cluster, dst.Cluster)
	}
	if src.Cluster == hw.BlueGene && dst.Cluster == hw.BlueGene {
		return nil, fmt.Errorf("tcpcar: MPI is the only allowed protocol inside the BlueGene (use mpicar)")
	}
	srcRef := chaos.NodeRef{Cluster: src.Cluster, Node: src.Node}
	dstRef := chaos.NodeRef{Cluster: dst.Cluster, Node: dst.Node}
	if err := f.inj.Dial(srcRef, dstRef); err != nil {
		return nil, fmt.Errorf("tcpcar: %w", err)
	}
	srcNode, err := f.env.Node(src.Cluster, src.Node)
	if err != nil {
		return nil, fmt.Errorf("tcpcar: %w", err)
	}
	dstNode, err := f.env.Node(dst.Cluster, dst.Node)
	if err != nil {
		return nil, fmt.Errorf("tcpcar: %w", err)
	}
	c := &Conn{
		fabric: f, src: src, dst: dst, inbox: inbox,
		srcNode: srcNode, dstNode: dstNode,
		srcRef: srcRef, dstRef: dstRef,
		abort: make(chan struct{}),
	}
	if dst.Cluster == hw.BlueGene {
		ion, err := f.env.IONodeFor(dst.Node)
		if err != nil {
			return nil, fmt.Errorf("tcpcar: %w", err)
		}
		c.ion = ion
		// Front-end connections (e.g. control results) do not model the
		// back-end coordination penalty, but still consume I/O-node capacity.
		if src.Cluster == hw.BackEnd {
			f.env.RegisterInbound(src.Node, ion.ID)
		}
	}
	if src.Cluster == hw.BlueGene {
		ion, err := f.env.IONodeFor(src.Node)
		if err != nil {
			return nil, fmt.Errorf("tcpcar: %w", err)
		}
		c.ion = ion
	}
	if f.reg != nil {
		link := fmt.Sprintf("tcp:%s->%s", src, dst)
		c.mFrames = f.reg.Counter("link.frames." + link)
		c.mBytes = f.reg.Counter("link.bytes." + link)
		c.mDrops = f.reg.Counter("link.drops." + link)
		c.hDeliver = f.reg.Histogram("link.deliver_vt.tcp")
	}
	return c, nil
}

// Send implements carrier.Conn.
func (c *Conn) Send(fr carrier.Frame) (vtime.Time, error) {
	c.mu.Lock()
	closed := c.closed
	seq := c.seq
	c.seq++
	c.mu.Unlock()
	// Once Send is called the carrier owns the frame, success or failure:
	// every error path recycles a pooled payload, so senders never touch it
	// again (a retry re-pools a fresh copy).
	if closed {
		carrier.Recycle(&fr)
		return 0, carrier.ErrClosed
	}
	select {
	case <-c.abort:
		carrier.Recycle(&fr)
		return 0, fmt.Errorf("tcpcar: %s->%s aborted: %w", c.src, c.dst, carrier.ErrClosed)
	default:
	}
	v := c.fabric.inj.OnSend(c.srcRef, c.dstRef, seq, fr.Ready, len(fr.Payload), fr.Last)
	if v.Err != nil {
		carrier.Recycle(&fr)
		return 0, fmt.Errorf("tcpcar: %w", v.Err)
	}
	if v.CorruptByte >= 0 {
		fr.Payload[v.CorruptByte] ^= 0xff
	}

	switch {
	case c.dst.Cluster == hw.BlueGene:
		return c.sendIntoBG(fr, v)
	case c.src.Cluster == hw.BlueGene:
		return c.sendOutOfBG(fr, v)
	default:
		return c.sendLinuxToLinux(fr, v)
	}
}

// deliver hands the frame to the receiving inbox, unless the connection is
// aborted (a torn stream must not wedge its producer on flow control).
// Successful deliveries are the single counting point for the link's
// frame/byte counters and latency histogram (sizes are captured before the
// channel send: the receiver owns the frame afterwards).
func (c *Conn) deliver(d carrier.Delivered) error {
	s := len(d.Payload)
	ready, at := d.Ready, d.At
	select {
	case c.inbox <- d:
		c.mFrames.Inc()
		c.mBytes.Add(int64(s))
		c.hDeliver.Observe(at.Sub(ready))
		return nil
	case <-c.abort:
		carrier.Recycle(&d.Frame)
		return fmt.Errorf("tcpcar: %s->%s aborted: %w", c.src, c.dst, carrier.ErrClosed)
	}
}

// sendIntoBG charges be/fe NIC → I/O forwarder → tree.
func (c *Conn) sendIntoBG(fr carrier.Frame, v chaos.Verdict) (vtime.Time, error) {
	env := c.fabric.env
	m := env.Cost
	s := len(fr.Payload)
	owner := carrier.QueryOf(fr.Source)

	nicSvc := m.BeMsgCost + byteDur(m.BeNICByte, s)
	if c.src.Cluster == hw.FrontEnd {
		nicSvc = m.BeMsgCost + byteDur(m.FENICByte, s)
	}
	_, senderFree := c.srcNode.NIC.UseAs(owner, fr.Ready, nicSvc)
	if v.Drop {
		c.mDrops.Inc()
		carrier.Recycle(&fr)
		return senderFree, nil
	}

	fwdSvc := byteDur(m.IOByte, s)
	// Connection-switching penalty when the I/O node forwards several
	// concurrent streams, charged at the expected alternation rate (p-1)/p
	// of p symmetric streams.
	if p := env.StreamsOnIO(c.ion.ID); p > 1 {
		fwdSvc += vtime.Duration(float64(m.IOSwitchCost) * float64(p-1) / float64(p))
	}
	if c.src.Cluster == hw.BackEnd {
		if peers := env.DistinctBeNodes(); peers > 1 {
			fwdSvc += vtime.Duration(peers-1) * m.CiodPeerCost
		}
	}
	_, t := c.ion.Forwarder.UseAs(owner, senderFree, fwdSvc)
	_, arrived := c.ion.Tree.UseAs(owner, t, byteDur(m.TreeByte, s))
	if fr.TraceID != 0 {
		fr.Hops = append(fr.Hops,
			carrier.Hop{Name: "nic " + c.src.String(), At: senderFree},
			carrier.Hop{Name: fmt.Sprintf("iofwd io:%d", c.ion.ID), At: t},
			carrier.Hop{Name: fmt.Sprintf("tree io:%d", c.ion.ID), At: arrived},
		)
	}

	if err := c.deliver(carrier.Delivered{Frame: fr, At: arrived.Add(v.Delay), ViaTCP: true}); err != nil {
		return senderFree, err
	}
	return senderFree, nil
}

// sendOutOfBG charges tree → I/O forwarder → destination NIC.
func (c *Conn) sendOutOfBG(fr carrier.Frame, v chaos.Verdict) (vtime.Time, error) {
	env := c.fabric.env
	m := env.Cost
	s := len(fr.Payload)
	owner := carrier.QueryOf(fr.Source)

	_, t := c.ion.Tree.UseAs(owner, fr.Ready, byteDur(m.TreeByte, s))
	senderFree := t
	if v.Drop {
		c.mDrops.Inc()
		carrier.Recycle(&fr)
		return senderFree, nil
	}
	treeAt := t
	_, t = c.ion.Forwarder.UseAs(owner, t, byteDur(m.IOByte, s))

	perByte := m.FENICByte
	if c.dst.Cluster == hw.BackEnd {
		perByte = m.BeNICByte
	}
	_, arrived := c.dstNode.NIC.UseAs(owner, t, m.BeMsgCost+byteDur(perByte, s))
	if fr.TraceID != 0 {
		fr.Hops = append(fr.Hops,
			carrier.Hop{Name: fmt.Sprintf("tree io:%d", c.ion.ID), At: treeAt},
			carrier.Hop{Name: fmt.Sprintf("iofwd io:%d", c.ion.ID), At: t},
			carrier.Hop{Name: "nic " + c.dst.String(), At: arrived},
		)
	}

	if err := c.deliver(carrier.Delivered{Frame: fr, At: arrived.Add(v.Delay), ViaTCP: true}); err != nil {
		return senderFree, err
	}
	return senderFree, nil
}

// sendLinuxToLinux charges the two NICs (same path within one cluster: the
// switch fabric itself is not a bottleneck).
func (c *Conn) sendLinuxToLinux(fr carrier.Frame, v chaos.Verdict) (vtime.Time, error) {
	env := c.fabric.env
	m := env.Cost
	s := len(fr.Payload)
	owner := carrier.QueryOf(fr.Source)

	perByteSrc := m.FENICByte
	if c.src.Cluster == hw.BackEnd {
		perByteSrc = m.BeNICByte
	}
	perByteDst := m.FENICByte
	if c.dst.Cluster == hw.BackEnd {
		perByteDst = m.BeNICByte
	}
	_, senderFree := c.srcNode.NIC.UseAs(owner, fr.Ready, m.BeMsgCost+byteDur(perByteSrc, s))
	if v.Drop {
		c.mDrops.Inc()
		carrier.Recycle(&fr)
		return senderFree, nil
	}
	_, arrived := c.dstNode.NIC.UseAs(owner, senderFree, byteDur(perByteDst, s))
	if fr.TraceID != 0 {
		fr.Hops = append(fr.Hops,
			carrier.Hop{Name: "nic " + c.src.String(), At: senderFree},
			carrier.Hop{Name: "nic " + c.dst.String(), At: arrived},
		)
	}

	if err := c.deliver(carrier.Delivered{Frame: fr, At: arrived.Add(v.Delay), ViaTCP: true}); err != nil {
		return senderFree, err
	}
	return senderFree, nil
}

// Abort unblocks a Send stalled on flow control and fails subsequent
// deliveries; the connection is torn without cooperation from the consumer.
func (c *Conn) Abort() {
	c.abortOnce.Do(func() { close(c.abort) })
}

// Close implements carrier.Conn. The inbound-stream registration is kept
// for the rest of the experiment epoch (hw.Env.Reset clears it): the
// virtual-time coordination penalties must not depend on the wall-clock
// order in which producers happen to finish.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func byteDur(perByte float64, n int) vtime.Duration {
	return vtime.Duration(perByte * float64(n))
}
