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
// penalty proportional to the number of *distinct* back-end nodes streaming
// in, both counted at the stream's first frame — the paper's "coordination problems in the I/O node when
// communicating with many outside nodes" (observation 3, Figure 15).
//
// Streams leaving the BlueGene traverse the same stages outward; streams
// between Linux nodes use the two NICs. Dial builds the path as a
// carrier.Route; charging, fault injection, tracing and link metrics are
// carrier.Link's. NetFabric (net.go) carries the frames of such a link over
// a real loopback socket; UDPFabric (udp.go) loses datagrams on the inbound
// route.
package tcpcar

import (
	"fmt"

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
type Endpoint = carrier.NodeRef

// Conn is an open TCP connection between two cluster nodes.
type Conn = carrier.Link

// Dial opens a TCP connection from src to dst delivering into inbox.
// Inbound BlueGene connections are registered with the environment so the
// coordination penalties can be modeled; the registration outlives Close
// (see carrier.Link.Close).
func (f *Fabric) Dial(src, dst Endpoint, inbox carrier.Inbox) (*Conn, error) {
	return f.dialAs("tcp", src, dst, inbox)
}

// dialAs is Dial for a carrier whose frames cross the same devices under
// another name (UDPFabric); kind labels the link and its metrics. The route is
// NIC → I/O forwarder → tree into the BlueGene, the same devices outward,
// and the two NICs between Linux nodes (the switch fabric itself is not a
// bottleneck).
func (f *Fabric) dialAs(kind string, src, dst Endpoint, inbox carrier.Inbox) (*Conn, error) {
	if !src.Cluster.Valid() || !dst.Cluster.Valid() {
		return nil, fmt.Errorf("tcpcar: invalid endpoint clusters %q -> %q", src.Cluster, dst.Cluster)
	}
	if src.Cluster == hw.BlueGene && dst.Cluster == hw.BlueGene {
		return nil, fmt.Errorf("tcpcar: MPI is the only allowed protocol inside the BlueGene (use mpicar)")
	}
	if err := f.inj.Dial(src, dst); err != nil {
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
	env, m := f.env, &f.env.Cost
	// A Linux NIC serialises the frame at its cluster's GbE rate; msgCost is
	// the per-message TCP overhead, paid once per path.
	nic := func(n *hw.Node, msgCost vtime.Duration) vtime.Stage {
		perByte := &m.FENICByte
		if n.Cluster == hw.BackEnd {
			perByte = &m.BeNICByte
		}
		return vtime.Stage{Resource: n.NIC, Label: n.Hop,
			Service: func(s int) vtime.Duration { return msgCost + byteDur(*perByte, s) }}
	}
	tree := func(ion *hw.IONode) vtime.Stage {
		return vtime.Stage{Resource: ion.Tree, Label: ion.TreeHop,
			Service: func(s int) vtime.Duration { return byteDur(m.TreeByte, s) }}
	}
	var stages []vtime.Stage
	switch {
	case dst.Cluster == hw.BlueGene:
		ion, err := env.IONodeFor(dst.Node)
		if err != nil {
			return nil, fmt.Errorf("tcpcar: %w", err)
		}
		// Front-end connections (e.g. control results) do not model the
		// back-end coordination penalty, but still consume I/O-node capacity.
		fromBE := src.Cluster == hw.BackEnd
		if fromBE {
			env.RegisterInbound(src.Node, ion.ID)
		}
		// The multiplicities the forwarder charges for are read once, at the
		// link's first frame, in the sender's turn: a query's first frame
		// comes after its whole build, and admission builds in a turn of its
		// own (vtime.Kernel.Pause).
		var mult struct {
			read           bool
			streams, peers int
		}
		forwarder := vtime.Stage{Resource: ion.Forwarder, Label: ion.FwdHop, Service: func(s int) vtime.Duration {
			if !mult.read {
				mult.read, mult.streams = true, env.StreamsOnIO(ion.ID)
				if fromBE {
					mult.peers = env.DistinctBeNodes()
				}
			}
			svc := byteDur(m.IOByte, s)
			// Connection-switching penalty when the I/O node forwards
			// several concurrent streams, charged at the expected
			// alternation rate (p-1)/p of p symmetric streams.
			if p := mult.streams; p > 1 {
				svc += vtime.Duration(float64(m.IOSwitchCost) * float64(p-1) / float64(p))
			}
			if peers := mult.peers; peers > 1 {
				svc += vtime.Duration(peers-1) * m.CiodPeerCost
			}
			return svc
		}}
		stages = []vtime.Stage{nic(srcNode, m.BeMsgCost), forwarder, tree(ion)}
	case src.Cluster == hw.BlueGene:
		ion, err := env.IONodeFor(src.Node)
		if err != nil {
			return nil, fmt.Errorf("tcpcar: %w", err)
		}
		forwarder := vtime.Stage{Resource: ion.Forwarder, Label: ion.FwdHop,
			Service: func(s int) vtime.Duration { return byteDur(m.IOByte, s) }}
		stages = []vtime.Stage{tree(ion), forwarder, nic(dstNode, m.BeMsgCost)}
	default:
		stages = []vtime.Stage{nic(srcNode, m.BeMsgCost), nic(dstNode, 0)}
	}
	r := carrier.Route{Kind: kind, Src: src, Dst: dst, Stages: stages, ViaTCP: true}
	return carrier.NewLink(r, inbox, f.inj, f.reg), nil
}

func byteDur(perByte float64, n int) vtime.Duration {
	return vtime.Duration(perByte * float64(n))
}
