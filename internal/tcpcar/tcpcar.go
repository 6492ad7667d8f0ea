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
// carrier.Link's. Every service is built once per Fabric; the inbound
// forwarder, which reads its multiplicities at the link's first frame, is
// the link's contended stage (carrier.Link.Contend). UDPFabric (udp.go)
// loses datagrams on the inbound route.
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
	// Injector, if set, is consulted on every dial and send; Metrics, if
	// set, records every link's frame/byte/drop counters and delivery
	// histograms. Set them before the first Dial.
	Injector *chaos.Injector
	Metrics  *metrics.Registry
	// The services that hold no per-link state are the fabric's, built once.
	// nic[c][msg] is a Linux NIC's, which serialises the frame at its
	// cluster's GbE rate (c 1 for the back-end) and, when msg is 1, pays the
	// per-message TCP overhead, once per path; tree and fwd are the tree's
	// and an I/O-node forwarder's. penalty[fromBE] is what the inbound
	// forwarder of an I/O node adds, fromBE 1 for a back-end stream.
	nic       [2][2]func(int) vtime.Duration
	tree, fwd func(int) vtime.Duration
	penalty   [2]func(int) vtime.Duration
}

// NewFabric returns a fabric over env.
func NewFabric(env *hw.Env) *Fabric {
	m := &env.Cost
	f := &Fabric{env: env,
		tree: func(s int) vtime.Duration { return byteDur(m.TreeByte, s) },
		fwd:  func(s int) vtime.Duration { return byteDur(m.IOByte, s) },
	}
	for fromBE := range f.penalty {
		f.penalty[fromBE] = func(io int) (penalty vtime.Duration) {
			// Connection-switching penalty when the I/O node forwards
			// several concurrent streams, charged at the expected
			// alternation rate (p-1)/p of p symmetric streams.
			if p := env.StreamsOnIO(io); p > 1 {
				penalty += vtime.Duration(float64(m.IOSwitchCost) * float64(p-1) / float64(p))
			}
			if fromBE == 1 {
				if peers := env.DistinctBeNodes(); peers > 1 {
					penalty += vtime.Duration(peers-1) * m.CiodPeerCost
				}
			}
			return penalty
		}
	}
	for c, perByte := range [2]*float64{&m.FENICByte, &m.BeNICByte} {
		f.nic[c] = [2]func(int) vtime.Duration{
			func(s int) vtime.Duration { return byteDur(*perByte, s) },
			func(s int) vtime.Duration { return m.BeMsgCost + byteDur(*perByte, s) },
		}
	}
	return f
}

// Endpoint names one side of a TCP connection.
type Endpoint = carrier.NodeRef

// Dial opens a TCP connection from src to dst delivering into inbox.
// Inbound BlueGene connections are registered with the environment so the
// coordination penalties can be modeled; the registration outlives Close
// (see carrier.Link.Close). A link passed after inbox is opened in place
// (carrier.Reuse).
func (f *Fabric) Dial(src, dst Endpoint, inbox carrier.Inbox, into ...*carrier.Link) (*carrier.Link, error) {
	return f.dialAs("tcp", src, dst, inbox, into)
}

// dialAs is Dial for a carrier whose frames cross the same devices under
// another name (UDPFabric); kind labels the link and its metrics. The route is
// NIC → I/O forwarder → tree into the BlueGene, the same devices outward,
// and the two NICs between Linux nodes (the switch fabric itself is not a
// bottleneck).
func (f *Fabric) dialAs(kind string, src, dst Endpoint, inbox carrier.Inbox, into []*carrier.Link) (*carrier.Link, error) {
	if !src.Cluster.Valid() || !dst.Cluster.Valid() {
		return nil, fmt.Errorf("tcpcar: invalid endpoint clusters %q -> %q", src.Cluster, dst.Cluster)
	}
	if src.Cluster == hw.BlueGene && dst.Cluster == hw.BlueGene {
		return nil, fmt.Errorf("tcpcar: MPI is the only allowed protocol inside the BlueGene (use mpicar)")
	}
	if err := f.Injector.Dial(src, dst); err != nil {
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
	env := f.env
	nic := func(n *hw.Node, msg int) vtime.Stage {
		c := 0
		if n.Cluster == hw.BackEnd {
			c = 1
		}
		return vtime.Stage{Resource: n.NIC, Label: n.Hop, Service: f.nic[c][msg]}
	}
	tree := func(ion *hw.IONode) vtime.Stage {
		return vtime.Stage{Resource: ion.Tree, Label: ion.TreeHop, Service: f.tree}
	}
	l := carrier.Reuse(into)
	stages := l.Stages()[:0]
	switch {
	case dst.Cluster == hw.BlueGene:
		ion, err := env.IONodeFor(dst.Node)
		if err != nil {
			return nil, fmt.Errorf("tcpcar: %w", err)
		}
		// Front-end connections (e.g. control results) do not model the
		// back-end coordination penalty, but still consume I/O-node capacity.
		fromBE := 0
		if src.Cluster == hw.BackEnd {
			fromBE = 1
			env.RegisterInbound(src.Node, ion.ID)
		}
		// The multiplicities the forwarder charges for are read once, at the
		// link's first frame to reach it, in the sender's turn: a query's
		// first frame comes after its whole build, and admission builds in a
		// turn of its own (vtime.Kernel.Pause).
		forwarder := vtime.Stage{Resource: ion.Forwarder, Label: ion.FwdHop, Service: l.Contend(f.fwd, f.penalty[fromBE], ion.ID)}
		stages = append(stages, nic(srcNode, 1), forwarder, tree(ion))
	case src.Cluster == hw.BlueGene:
		ion, err := env.IONodeFor(src.Node)
		if err != nil {
			return nil, fmt.Errorf("tcpcar: %w", err)
		}
		forwarder := vtime.Stage{Resource: ion.Forwarder, Label: ion.FwdHop, Service: f.fwd}
		stages = append(stages, tree(ion), forwarder, nic(dstNode, 1))
	default:
		stages = append(stages, nic(srcNode, 1), nic(dstNode, 0))
	}
	r := carrier.Route{Kind: kind, Src: src, Dst: dst, Stages: stages, ViaTCP: true}
	return carrier.NewLink(l, r, inbox, f.Injector.Faults(), f.Metrics), nil
}

func byteDur(perByte float64, n int) vtime.Duration {
	return vtime.Duration(perByte * float64(n))
}
