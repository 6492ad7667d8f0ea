// Package carrier defines the stream-carrier abstraction of SCSQ's sender
// and receiver drivers (paper §2.3). A carrier connection transports frames
// of marshaled stream objects from a producer RP to a subscriber RP and
// charges the simulated hardware for the transfer, yielding the virtual
// delivery time of each frame.
//
// Every connection is a Link over a Route (link.go): an ordered list of
// vtime.Stages that Link.Send submits as one request chain through
// vtime.Submit, keyed by the frame's producer and the link's frame sequence
// number. The carriers matching the paper — internal/mpicar (native MPI
// inside the BlueGene, with single- or double-buffered drivers),
// internal/tcpcar (TCP between clusters, and UDP into the BlueGene) — build
// the routes from the cost model.
package carrier

import (
	"errors"
	"strings"

	"scsq/internal/vtime"
)

// QueryOf extracts the owning query id from an RP identity. The engine names
// every process of query q3 with a "q3/" prefix ("q3/rp-bg-1", "q3/client"),
// so carriers can attribute hardware charges to the tenant whose frame they
// move without widening the Dial APIs. An unprefixed identity (single-query
// programmatic use, unit tests) yields "".
func QueryOf(id string) string {
	if i := strings.IndexByte(id, '/'); i > 0 {
		return id[:i]
	}
	return ""
}

// Buffering selects the MPI driver's buffer discipline (paper §2.3: the MPI
// sender and receiver drivers contain double buffers so that one buffer can
// be processed while the other one is read or written).
type Buffering int

// Buffering modes.
const (
	SingleBuffered Buffering = iota + 1
	DoubleBuffered
)

func (b Buffering) String() string {
	switch b {
	case SingleBuffered:
		return "single"
	case DoubleBuffered:
		return "double"
	default:
		return "unknown"
	}
}

// Frame is one flushed send buffer.
type Frame struct {
	// Source identifies the producer RP; receivers use it to model
	// source-switching penalties when merging.
	Source string
	// Payload holds marshaled stream objects (see internal/marshal).
	Payload []byte
	// Ready is the virtual instant the payload finished marshaling at the
	// sender.
	Ready vtime.Time
	// Last marks the final frame of the stream; its payload may be empty.
	Last bool
	// Pooled marks a payload drawn from the shared frame-buffer pool (see
	// pool.go). Whoever consumes the frame's bytes last must hand the
	// payload back via Recycle; a frame whose payload outlives the consumer
	// must be sent with Pooled false.
	Pooled bool
	// Offset is the cumulative count of payload bytes the sender shipped on
	// this stream before this frame. A supervised replacement of a failed
	// producer replays its (deterministic) stream from offset zero; a
	// receiver tracking offsets discards the already-ingested prefix, which
	// is what makes re-placement exactly-once.
	Offset uint64
	// Down marks a failure-propagation frame: the producer (or its
	// supervisor, speaking for a dead node) declares the stream failed.
	// Receivers surface DownErr as a typed error instead of terminating
	// cleanly, so a failure crosses the SP graph instead of wedging it.
	Down bool
	// DownErr carries the failure description of a Down frame.
	DownErr string
	// TraceID tags the frame for frame-level tracing; zero means untraced.
	// The sender driver assigns it deterministically (a hash of the stream
	// identity and the frame sequence number, not a global counter, so
	// goroutine scheduling never shows through) and it rides the frame
	// across every SP-graph hop, correlating the spans of one frame's
	// journey in the emitted trace.
	TraceID uint64
	// Hops records the named virtual-time waypoints a traced frame passed —
	// co-processors, forwarder nodes, NICs. Carriers append to it only when
	// TraceID is non-zero; the receiver driver emits the hops as trace
	// instants. Hops[0] is planted by the sender driver and names the link,
	// so receiver-side trace events land in the same Perfetto lane as the
	// sender's without widening every carrier API.
	Hops []Hop
}

// Hop is one named waypoint on a traced frame's journey.
type Hop struct {
	// Name identifies the hardware stage (e.g. "coproc bg:3", "iofwd io:0").
	Name string
	// At is the virtual instant the frame cleared the stage.
	At vtime.Time
}

// Delivered is a frame annotated with its virtual arrival time at the
// receiving node.
type Delivered struct {
	Frame
	// At is the virtual arrival instant (network stages complete;
	// de-marshaling is charged by the receiver driver).
	At vtime.Time
	// ViaTCP reports that the frame crossed a cluster boundary over the TCP
	// carrier (receiver drivers charge inbound-TCP de-marshal rates and
	// merge-switch penalties only for such frames).
	ViaTCP bool
}

// Inbox is the receiving end of one or more connections. The channel is
// buffered by the flow-control window of the receiver driver; senders block
// when the subscriber falls behind, which is SCSQ's stream-flow regulation.
type Inbox chan Delivered

// Conn is an open carrier connection.
type Conn interface {
	// Send charges the hardware model for the frame and delivers it to the
	// receiver's inbox. It returns the virtual time at which the sender-side
	// device (co-processor or NIC) finished with the frame — the instant the
	// send buffer becomes reusable — which the sender driver uses to
	// implement single versus double buffering.
	Send(f Frame) (senderFree vtime.Time, err error)
	// Close releases carrier resources (e.g. the inbound-stream registry
	// entry used for coordination-penalty modeling). It does not close the
	// inbox, which may be shared by other connections.
	Close() error
}

// ErrClosed is returned by Send on a closed connection.
var ErrClosed = errors.New("carrier: connection closed")

// ErrDialTimeout is the typed error for a carrier dial that did not complete
// in time (injected by the chaos layer, or a real socket timeout). It is
// transient: DialRetry retries it with exponential backoff.
var ErrDialTimeout = errors.New("carrier: dial timeout")

// ErrPeerReset is the typed error for a mid-stream connection reset. It is
// transient: sender drivers retry the frame a bounded number of times.
var ErrPeerReset = errors.New("carrier: connection reset by peer")

// ErrNodeDown is the typed error for traffic to or from a crashed compute
// node. It is terminal — a dead node does not come back within a query —
// and is what a supervisor reacts to.
var ErrNodeDown = errors.New("carrier: compute node down")

// IsTransient reports whether err is worth retrying (dial timeouts and peer
// resets). Closed connections and dead nodes are terminal.
func IsTransient(err error) bool {
	return errors.Is(err, ErrDialTimeout) || errors.Is(err, ErrPeerReset)
}

// Aborter is the optional interface of connections that can be aborted from
// outside the sending goroutine: Abort unblocks a Send stalled on flow
// control and makes subsequent Sends fail. Failure detection uses it to tear
// the streams of a killed RP without waiting for the consumer.
type Aborter interface {
	Abort()
}
