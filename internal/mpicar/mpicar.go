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
// carrier.Link's.
package mpicar

import (
	"fmt"
	"sync"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/vtime"
)

// Fabric charges MPI transfers against a hardware environment. It tracks
// how many producers stream into each node so the receive-side switching
// penalty can be charged deterministically, so all connections of one
// experiment must share a Fabric.
type Fabric struct {
	env *hw.Env
	inj *chaos.Injector
	reg *metrics.Registry

	mu        sync.Mutex
	producers map[int]int // dst node -> producers dialed this epoch
}

// NewFabric returns a fabric over env.
func NewFabric(env *hw.Env) *Fabric {
	return &Fabric{env: env, producers: make(map[int]int)}
}

// Env returns the underlying hardware environment.
func (f *Fabric) Env() *hw.Env { return f.env }

// SetInjector attaches a chaos injector consulted on every dial and send.
// It must be called before the first Dial; a nil injector disables
// injection.
func (f *Fabric) SetInjector(inj *chaos.Injector) { f.inj = inj }

// SetMetrics attaches a telemetry registry: every connection records
// per-link frame/byte/drop counters and torus delivery-latency histograms.
// It must be called before the first Dial; nil disables recording.
func (f *Fabric) SetMetrics(reg *metrics.Registry) { f.reg = reg }

// producerCount reports how many producers have dialed dst during the
// current experiment epoch. The count is cumulative — it does not drop when
// a producer finishes — because the virtual-time model must not depend on
// wall-clock completion order; Reset starts a new epoch.
func (f *Fabric) producerCount(dst int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.producers[dst]
}

func (f *Fabric) addProducer(dst int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.producers[dst]++
}

// Reset clears the producer tracking (use together with hw.Env.Reset
// between experiment repetitions).
func (f *Fabric) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.producers = make(map[int]int)
}

// Conn is an open MPI connection between two BG compute nodes.
type Conn = carrier.Link

// Dial opens an MPI connection from BG compute node src to dst, delivering
// frames into inbox. mode selects single or double buffering of the MPI
// driver. The route is the sender's co-processor, the co-processor of every
// intermediate node of the dimension-ordered torus route, and the
// receiver's.
func (f *Fabric) Dial(src, dst int, mode carrier.Buffering, inbox carrier.Inbox) (*Conn, error) {
	if mode != carrier.SingleBuffered && mode != carrier.DoubleBuffered {
		return nil, fmt.Errorf("mpicar: invalid buffering mode %d", mode)
	}
	if src == dst {
		return nil, fmt.Errorf("mpicar: src and dst are the same node %d (CNK runs one process per node)", src)
	}
	srcRef := carrier.NodeRef{Cluster: hw.BlueGene, Node: src}
	dstRef := carrier.NodeRef{Cluster: hw.BlueGene, Node: dst}
	if err := f.inj.Dial(srcRef, dstRef); err != nil {
		return nil, fmt.Errorf("mpicar: %w", err)
	}
	// hops lists the intermediate nodes followed by the destination.
	hops, err := f.env.Torus.Route(src, dst)
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
	m := &f.env.Cost
	// Sender co-processor: k packets, plus the double-buffer bookkeeping.
	send := func(s int) vtime.Duration {
		k := m.Packets(s)
		svc := scaleDur(vtime.Duration(k)*m.PacketCost, m.CacheFactor(s))
		if mode == carrier.DoubleBuffered {
			svc += m.DoubleBufSync
			// The ping-pong of the double buffers stalls on buffers that
			// fill an odd number of torus packets (the "bumps" of Figure 6).
			if k > 1 && k%2 == 1 {
				svc += m.OddPacketStall
			}
		}
		return svc
	}
	// Intermediate co-processors forward the packets in order.
	forward := func(s int) vtime.Duration { return packets(m, s, m.FwdFactor) }
	// Receiver co-processor, with the merge switching penalty: the
	// single-threaded co-processor switches between its p producers at the
	// expected alternation rate (p-1)/p.
	receive := func(s int) vtime.Duration {
		svc := packets(m, s, m.RecvFactor)
		if p := f.producerCount(dst); p > 1 {
			svc += scaleDur(m.CoprocSwitchCost, float64(p-1)/float64(p))
		}
		return svc
	}
	// The frame starts on the sender's co-processor, which is therefore not
	// a hop and carries no trace label.
	stages := make([]vtime.Stage, 0, len(hops)+1)
	stages = append(stages, vtime.Stage{Resource: srcNode.Coproc, Service: send})
	for _, mid := range hops[:len(hops)-1] {
		node, err := f.env.Node(hw.BlueGene, mid)
		if err != nil {
			return nil, fmt.Errorf("mpicar: %w", err)
		}
		stages = append(stages, vtime.Stage{Resource: node.Coproc, Service: forward, Label: node.FwdHop})
	}
	stages = append(stages, vtime.Stage{Resource: dstNode.Coproc, Service: receive, Label: dstNode.Hop})
	f.addProducer(dst)
	return carrier.NewLink(carrier.Route{Kind: "mpi", Src: srcRef, Dst: dstRef, Stages: stages}, inbox, f.inj, f.reg), nil
}

// packets is the co-processor time for the k torus packets of an s-byte
// frame, each costing factor × PacketCost, under cache pressure.
func packets(m *hw.CostModel, s int, factor float64) vtime.Duration {
	return scaleDur(scaleDur(vtime.Duration(m.Packets(s))*m.PacketCost, factor), m.CacheFactor(s))
}

func scaleDur(d vtime.Duration, f float64) vtime.Duration {
	return vtime.Duration(float64(d) * f)
}
