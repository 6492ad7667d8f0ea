// Package udpcar implements the UDP stream carrier variant the paper's
// hardware offers (§2.1: communication with the Linux clusters utilizes
// I/O nodes that provide TCP or UDP). UDP transport is best-effort:
// datagrams may be dropped at the overloaded I/O node, so a bandwidth
// measurement that counts arrays observes the loss directly.
//
// The route is the TCP carrier's inbound path (back-end NIC → I/O-node
// forwarder → tree network, built by tcpcar), except that a dropped frame
// consumes the sender-side costs but never reaches the receiver. Loss is
// deterministic — a hash of the connection id and frame sequence number
// against the configured loss rate — so experiments are reproducible.
// End-of-stream frames are always delivered (the engine's termination
// protocol runs over the reliable control channel the paper's RPs maintain
// for control messages).
package udpcar

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/tcpcar"
)

// Fabric charges UDP transfers against a hardware environment. Datagrams
// cross the devices of the TCP carrier's inbound route, so it is a
// tcpcar.Fabric (Env, SetInjector and SetMetrics are that fabric's) whose
// links lose datagrams.
type Fabric struct {
	*tcpcar.Fabric
	lossRate float64
	nextID   atomic.Int64
}

// NewFabric returns a UDP fabric with the given datagram loss rate in
// [0, 1).
func NewFabric(env *hw.Env, lossRate float64) (*Fabric, error) {
	if lossRate < 0 || lossRate >= 1 {
		return nil, fmt.Errorf("udpcar: loss rate must be in [0,1), got %v", lossRate)
	}
	return &Fabric{Fabric: tcpcar.NewFabric(env), lossRate: lossRate}, nil
}

// Conn is a UDP stream connection from a back-end node into the BlueGene;
// its link.frames.* and link.drops.* counters tell delivered from lost.
type Conn = carrier.Link

// Dial opens a UDP connection from src (a back-end node) to dst (a BG
// compute node), delivering into inbox. Dropped frames consume the
// sender-side costs but are not delivered; Last frames always arrive.
func (f *Fabric) Dial(src, dst tcpcar.Endpoint, inbox carrier.Inbox) (*Conn, error) {
	if src.Cluster != hw.BackEnd || dst.Cluster != hw.BlueGene {
		return nil, fmt.Errorf("udpcar: only back-end → BlueGene streams use UDP, got %s -> %s", src, dst)
	}
	c, err := f.DialAs("udp", src, dst, inbox)
	if err != nil {
		return nil, fmt.Errorf("udpcar: %w", err)
	}
	id := f.nextID.Add(1)
	c.Lose = func(seq uint64) bool { return f.drop(id, seq) }
	return c, nil
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
