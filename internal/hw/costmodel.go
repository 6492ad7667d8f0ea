package hw

import (
	"math"

	"scsq/internal/vtime"
)

// CostModel holds the calibrated virtual-time cost constants for the LOFAR
// hardware environment. All per-byte costs are virtual nanoseconds per byte;
// all fixed costs are virtual durations. The defaults (DefaultCostModel) are
// calibrated so the regenerated figures land in the ranges the paper
// reports; every constant models a mechanism the paper names (see DESIGN.md
// §3 for the derivations).
type CostModel struct {
	// --- BlueGene intra-torus MPI streaming (Figures 6 and 8) ---

	// TorusPacketBytes is the smallest message exchangeable on the BG 3D
	// torus (the paper attributes the sub-1KB degradation in Figure 6 to
	// this 1 KB minimum).
	TorusPacketBytes int

	// PacketCost is the communication co-processor's service time per torus
	// packet when sending.
	PacketCost vtime.Duration

	// FwdFactor scales PacketCost for an intermediate node forwarding a
	// packet on behalf of others (paper §3.1: routed through the
	// communication co-processors of the nodes in between).
	FwdFactor float64

	// RecvFactor scales PacketCost for the receiving co-processor. Receiving
	// is cheaper than sending/forwarding; this asymmetry is what makes the
	// balanced node selection up to ~60% faster than the sequential one.
	RecvFactor float64

	// BGMarshalByte is the compute-node CPU cost per byte to marshal or
	// de-marshal stream objects.
	BGMarshalByte float64

	// CachePenalty is the per-doubling slowdown applied to CPU and
	// co-processor work for buffers larger than TorusPacketBytes, modelling
	// the cache misses the paper blames for the drop-off above 1000 bytes.
	CachePenalty float64

	// CoprocSwitchCost is the penalty the receiver's single-threaded
	// co-processor pays when consecutive buffers arrive from different
	// producers (stream merging), charged at the expected alternation rate
	// (p-1)/p of p producers. Less frequent switching improves
	// communication, so large-but-few messages win for merging.
	CoprocSwitchCost vtime.Duration

	// DoubleBufSync is the per-buffer synchronization cost of the
	// double-buffered MPI driver.
	DoubleBufSync vtime.Duration

	// OddPacketStall is the extra ping-pong stall a double-buffered send
	// pays when the buffer fills an odd number of torus packets. It is a
	// synthetic stand-in for the statistically significant but unexplained
	// bumps in the paper's double-buffer curve.
	OddPacketStall vtime.Duration

	// --- Back-end → BlueGene inbound TCP streaming (Figure 15) ---

	// BeNICByte is the back-end node's GbE serialization cost per byte.
	// 8.5 ns/B caps a single back-end node at ~115 MB/s ≈ 920 Mbps, the
	// peak the paper measures for Query 5.
	BeNICByte float64

	// BeMsgCost is the per-message TCP overhead on the back-end NIC.
	BeMsgCost vtime.Duration

	// BeCPUByte is the back-end node CPU cost per byte to marshal.
	BeCPUByte float64

	// IOByte is the I/O node's per-byte cost to forward TCP traffic onto
	// the tree network (the PowerPC 440 doing ciod forwarding); 20 ns/B
	// caps one I/O node at ~50 MB/s ≈ 400 Mbps, which is why Queries 1-4
	// (single I/O node) are far below Queries 5-6.
	IOByte float64

	// IOSwitchCost is the extra per-message cost an I/O node pays when it
	// forwards more than one concurrent inbound stream (connection
	// switching). It produces the Query 5 dip at n=5 when five streams
	// share four I/O nodes.
	IOSwitchCost vtime.Duration

	// CiodPeerCost is the partition-wide coordination penalty per message
	// and per additional *distinct* back-end node streaming into the
	// partition. This is the paper's "coordination problems in the I/O node
	// when communicating with many outside nodes" and is the single
	// mechanism behind Q1>Q2, Q3>Q4 and the surprising Q5>Q6.
	CiodPeerCost vtime.Duration

	// TreeByte is the per-byte cost on the 2.8 Gbps tree network between an
	// I/O node and its pset's compute nodes (never the bottleneck, included
	// for completeness).
	TreeByte float64

	// BGCPUByte is the BG compute node's CPU cost per byte to de-marshal an
	// inbound TCP stream (700 MHz PowerPC 440: slow).
	BGCPUByte float64

	// BGMergeSwitchCost is the per-message penalty a single BG RP pays when
	// merging several inbound streams (source switching in merge()); it is
	// what parallelizing the receivers over a pset (Queries 3/4) relieves.
	BGMergeSwitchCost vtime.Duration

	// --- Generic CPU costs ---

	// GenByte is the CPU cost per byte for gen_array to produce data.
	GenByte float64

	// AggElemCost is the CPU cost to fold one element into an aggregate
	// (count, sum).
	AggElemCost vtime.Duration

	// FECPUByte is the front-end node CPU cost per byte.
	FECPUByte float64

	// FENICByte is the front-end GbE cost per byte.
	FENICByte float64
}

// DefaultCostModel returns the calibrated defaults described in DESIGN.md.
func DefaultCostModel() CostModel {
	return CostModel{
		TorusPacketBytes: 1024,
		PacketCost:       16 * vtime.Microsecond,
		FwdFactor:        1.0,
		RecvFactor:       0.6,
		BGMarshalByte:    3.0,
		CachePenalty:     0.25,
		CoprocSwitchCost: 100 * vtime.Microsecond,
		DoubleBufSync:    500 * vtime.Nanosecond,
		OddPacketStall:   8 * vtime.Microsecond,

		BeNICByte:         8.5,
		BeMsgCost:         500 * vtime.Microsecond,
		BeCPUByte:         1.0,
		IOByte:            20.0,
		IOSwitchCost:      24 * vtime.Millisecond,
		CiodPeerCost:      20 * vtime.Millisecond,
		TreeByte:          2.85,
		BGCPUByte:         12.0,
		BGMergeSwitchCost: 64 * vtime.Millisecond,

		GenByte:     0.5,
		AggElemCost: 200 * vtime.Nanosecond,
		FECPUByte:   1.0,
		FENICByte:   8.5,
	}
}

// CacheFactor returns the cache-pressure multiplier for a buffer of s bytes:
// 1 for buffers up to the torus packet size, growing logarithmically above.
func (m CostModel) CacheFactor(s int) float64 {
	if s <= m.TorusPacketBytes || m.TorusPacketBytes <= 0 {
		return 1
	}
	return 1 + m.CachePenalty*math.Log2(float64(s)/float64(m.TorusPacketBytes))
}

// Packets returns the number of torus packets a buffer of s payload bytes
// occupies (minimum one: 1 KB is the smallest torus message).
func (m CostModel) Packets(s int) int {
	if s <= 0 {
		return 1
	}
	k := (s + m.TorusPacketBytes - 1) / m.TorusPacketBytes
	if k < 1 {
		k = 1
	}
	return k
}

// ScaleInboundFixed returns a copy of the model with the per-message fixed
// costs of the inbound-TCP path multiplied by f. The experiment harness uses
// it to run Figure 15 with smaller arrays than the paper's 3 MB while
// keeping the balance between per-byte and per-message costs: with arrays of
// s bytes it passes f = s / 3e6, so the regenerated curves keep their shape,
// though not their exact values (see bench.inboundCost).
func (m CostModel) ScaleInboundFixed(f float64) CostModel {
	m.BeMsgCost = scaleRound(m.BeMsgCost, f)
	m.IOSwitchCost = scaleRound(m.IOSwitchCost, f)
	m.CiodPeerCost = scaleRound(m.CiodPeerCost, f)
	m.BGMergeSwitchCost = scaleRound(m.BGMergeSwitchCost, f)
	return m
}

// scaleRound multiplies a duration by a float factor, rounding to
// nanoseconds.
func scaleRound(d vtime.Duration, f float64) vtime.Duration {
	return vtime.Duration(math.Round(float64(d) * f))
}
