// Package mpicar implements the MPI stream carrier used between BlueGene
// compute nodes (paper §2.3: MPI is always used inside the BlueGene as that
// is the only allowed protocol).
//
// A frame of s payload bytes crosses the 3D torus as k = ceil(s/1KB)
// packets (1 KB is the smallest torus message). The carrier charges, in
// order: the sender's communication co-processor, the co-processor of every
// intermediate node on the dimension-ordered route (messages between
// non-adjacent nodes are routed through the nodes in between, which is
// slower when those co-processors are busy), and the receiver's
// co-processor. The receiving co-processor is single-threaded and pays a
// switching penalty whenever consecutive frames arrive from different
// producers — the mechanism behind the paper's stream-merging results
// (Figure 8). Those devices are the stages of the carrier.Route that Dial
// builds; charging, fault injection, tracing and link metrics are
// carrier.Link's. Every service is built once per Fabric but the
// receiver's: it reads its node's producer count at the link's first frame,
// and so is the link's contended stage (carrier.Link.Contend).
package mpicar

import (
	"fmt"
	"slices"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/vtime"
)

// Fabric charges MPI transfers against a hardware environment. Every Dial
// registers its producer with the environment (hw.Env.RegisterProducer), so
// the receive-side switching penalty counts every stream into a node,
// whichever fabric dialed it.
type Fabric struct {
	env *hw.Env
	// Injector, if set, is consulted on every dial and send; Metrics, if
	// set, records every link's frame/byte/drop counters and delivery
	// histograms. Set them before the first Dial.
	Injector *chaos.Injector
	Metrics  *metrics.Registry
	// The services that hold no per-link state are the fabric's, built once:
	// the sender's co-processor's by buffering mode and an intermediate
	// node's; receive and switching are the receiver's base service and its
	// penalty for a node.
	send                        [carrier.DoubleBuffered + 1]func(int) vtime.Duration
	forward, receive, switching func(int) vtime.Duration
}

// NewFabric returns a fabric over env.
func NewFabric(env *hw.Env) *Fabric {
	m := &env.Cost
	f := &Fabric{env: env,
		forward: func(s int) vtime.Duration { return packets(m, s, m.FwdFactor) },
		receive: func(s int) vtime.Duration { return packets(m, s, m.RecvFactor) },
		// The single-threaded co-processor switches between its p producers
		// at the expected alternation rate (p-1)/p. p counts every stream
		// opened into the node since hw.Env.Reset: it does not drop when a
		// producer finishes, because the virtual-time model must not depend
		// on wall-clock completion order.
		switching: func(dst int) vtime.Duration {
			if p := env.ProducersOn(dst); p > 1 {
				return scaleDur(m.CoprocSwitchCost, float64(p-1)/float64(p))
			}
			return 0
		},
	}
	for _, mode := range []carrier.Buffering{carrier.SingleBuffered, carrier.DoubleBuffered} {
		f.send[mode] = func(s int) vtime.Duration { return send(m, s, mode == carrier.DoubleBuffered) }
	}
	return f
}

// Dial opens an MPI connection from BG compute node src to dst, delivering
// frames into inbox. mode selects single or double buffering of the MPI
// driver. The route is the sender's co-processor, the co-processor of every
// intermediate node of the dimension-ordered torus route, and the
// receiver's. A link passed after inbox is opened in place (carrier.Reuse).
func (f *Fabric) Dial(src, dst int, mode carrier.Buffering, inbox carrier.Inbox, into ...*carrier.Link) (*carrier.Link, error) {
	if mode != carrier.SingleBuffered && mode != carrier.DoubleBuffered {
		return nil, fmt.Errorf("mpicar: invalid buffering mode %d", mode)
	}
	if src == dst {
		return nil, fmt.Errorf("mpicar: src and dst are the same node %d (CNK runs one process per node)", src)
	}
	srcRef := carrier.NodeRef{Cluster: hw.BlueGene, Node: src}
	dstRef := carrier.NodeRef{Cluster: hw.BlueGene, Node: dst}
	if err := f.Injector.Dial(srcRef, dstRef); err != nil {
		return nil, fmt.Errorf("mpicar: %w", err)
	}
	// hops lists the intermediate nodes followed by the destination.
	var buf [32]int
	hops, err := f.env.Torus.AppendRoute(buf[:0], src, dst)
	if err != nil {
		return nil, fmt.Errorf("mpicar: %w", err)
	}
	srcNode, err := f.env.Node(hw.BlueGene, src)
	if err != nil {
		return nil, fmt.Errorf("mpicar: %w", err)
	}
	dstNode, err := f.env.Node(hw.BlueGene, dst)
	if err != nil {
		return nil, fmt.Errorf("mpicar: %w", err)
	}
	// The frame starts on the sender's co-processor, which is therefore not
	// a hop and carries no trace label.
	l := carrier.Reuse(into)
	stages := slices.Grow(l.Stages()[:0], len(hops)+1)
	stages = append(stages, vtime.Stage{Resource: srcNode.Coproc, Service: f.send[mode]})
	for _, mid := range hops[:len(hops)-1] {
		node, err := f.env.Node(hw.BlueGene, mid)
		if err != nil {
			return nil, fmt.Errorf("mpicar: %w", err)
		}
		stages = append(stages, vtime.Stage{Resource: node.Coproc, Service: f.forward, Label: node.FwdHop})
	}
	// The receiver's co-processor pays the merge switching penalty, read at
	// the first frame to reach dst, in the sender's turn: a query's first
	// frame comes after its whole build, and admission builds in a turn of
	// its own.
	receive := l.Contend(f.receive, f.switching, dst)
	stages = append(stages, vtime.Stage{Resource: dstNode.Coproc, Service: receive, Label: dstNode.Hop})
	f.env.RegisterProducer(dst)
	return carrier.NewLink(l, carrier.Route{Kind: "mpi", Src: srcRef, Dst: dstRef, Stages: stages}, inbox, f.Injector.Faults(), f.Metrics), nil
}

// send is the sender co-processor's time for an s-byte frame: k packets,
// plus the double-buffer bookkeeping.
func send(m *hw.CostModel, s int, double bool) vtime.Duration {
	k := m.Packets(s)
	svc := scaleDur(vtime.Duration(k)*m.PacketCost, m.CacheFactor(s))
	if double {
		svc += m.DoubleBufSync
		// The ping-pong of the double buffers stalls on buffers that fill an
		// odd number of torus packets (the "bumps" of Figure 6).
		if k > 1 && k%2 == 1 {
			svc += m.OddPacketStall
		}
	}
	return svc
}

// packets is the co-processor time for the k torus packets of an s-byte
// frame, each costing factor × PacketCost, under cache pressure.
func packets(m *hw.CostModel, s int, factor float64) vtime.Duration {
	return scaleDur(scaleDur(vtime.Duration(m.Packets(s))*m.PacketCost, factor), m.CacheFactor(s))
}

func scaleDur(d vtime.Duration, f float64) vtime.Duration {
	return vtime.Duration(float64(d) * f)
}
