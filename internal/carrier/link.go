package carrier

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"scsq/internal/hw"
	"scsq/internal/metrics"
	"scsq/internal/vtime"
)

// NodeRef names one compute node of the environment.
type NodeRef struct {
	Cluster hw.ClusterName
	Node    int
}

func (n NodeRef) String() string { return string(n.Cluster) + ":" + strconv.Itoa(n.Node) }

// Route describes the path of one connection: every frame crosses Stages in
// order, each stage starting when the previous one released the frame.
// Stages[0] is the sender-side device — its end is the instant the send
// buffer becomes reusable, and it is the only stage a lost frame pays. A
// stage's service is evaluated when the frame reaches it; a stage that
// depends on contention multiplicities reads them once, at the first frame to
// reach it, and charges every frame for the same.
type Route struct {
	// Kind is the carrier ("mpi", "tcp", "udp"): the prefix of the link
	// label and the suffix of the link.deliver_vt.* histogram.
	Kind     string
	Src, Dst NodeRef
	Stages   []vtime.Stage
	// ViaTCP marks deliveries as having crossed the TCP/UDP stack (see
	// Delivered.ViaTCP).
	ViaTCP bool
}

// Verdict is the fault decision about one frame send. The zero value is
// "no fault".
type Verdict struct {
	// Err, if non-nil, fails the send without delivering the frame. It
	// wraps carrier.ErrNodeDown.
	Err error
	// Delay is extra delivery latency added to the frame's arrival time.
	Delay vtime.Duration
}

// Faults decides the fate of every frame a link sends. chaos.Injector is the
// implementation; the interface exists because chaos imports this package.
type Faults interface {
	OnSend(src, dst NodeRef, seq uint64, ready vtime.Time, last bool) Verdict
}

// linkFamily keys a connection's counters by its label, kindFamily a
// carrier's delivery histogram by its kind. Both are hardware-keyed: every
// query that dials the same connection counts into the same block. Only a
// sender in its turn writes them (metrics.Family.Turn).
var (
	linkFamily = &metrics.Family{Counters: []string{"link.frames.", "link.bytes.", "link.drops."}, Turn: true}
	kindFamily = &metrics.Family{Hists: []string{"link.deliver_vt."}, Turn: true}
)

// Link is an open connection over a Route. Its Send is the one place a
// frame is charged to the simulated hardware, whatever the carrier.
type Link struct {
	route  Route
	label  string
	inbox  Inbox
	faults Faults

	// Lose, if set, is consulted for every non-final frame with its sequence
	// number and loses the frame when it reports true (UDP's seeded datagram
	// loss). Set it before the first Send.
	Lose func(seq uint64) bool
	// Sender is the producing process in its kernel: a Send submits the
	// route in its turn and parks it on the Receiver's credit while the
	// receiving inbox is full. Nil parks nothing. Set it before the first
	// Send.
	Sender *vtime.Agent
	// Receiver is the consuming process: a frame delivered to its inbox
	// wakes it, or holds its mark at the frame's arrival, and its receives
	// wake the Sender (vtime.Send). Nil: a consumer that is no process, on
	// whose full inbox a Send blocks. Set it before the first Send.
	Receiver *vtime.Agent

	// Metric handles are resolved once at NewLink: the per-frame path is
	// plain adds in the sender's turn (nil-safe no-ops without a registry).
	mFrames  *metrics.Counter
	mBytes   *metrics.Counter
	mDrops   *metrics.Counter
	hDeliver *metrics.Histogram

	abort  chan struct{}
	torn   atomic.Bool // Abort comes from outside the kernel
	closed atomic.Bool // and so does Close
	seq    uint64      // the next frame's sequence number, read in the sender's turn

	// contended is the state of the route's contended stage (Contend).
	contended struct {
		base, penalty, service func(int) vtime.Duration
		arg                    int
		read                   vtime.Duration // the penalty; -1 until the first frame
	}
}

// Contend arms l's contended stage, the one whose service reads contention
// multiplicities: base(s) plus penalty(arg), read at the first frame to reach
// it, in the sender's turn. It returns the stage's service, built once per
// Link object; NewLink keeps it and the state it reads, which each dial
// re-arms, so a recycled link reads its penalty afresh.
func (l *Link) Contend(base, penalty func(int) vtime.Duration, arg int) func(int) vtime.Duration {
	c := &l.contended
	c.base, c.penalty, c.arg, c.read = base, penalty, arg, -1
	if c.service == nil {
		c.service = l.contendedService
	}
	return c.service
}

func (l *Link) contendedService(s int) vtime.Duration {
	c := &l.contended
	if c.read < 0 {
		c.read = c.penalty(c.arg)
	}
	return c.base(s) + c.read
}

// NewLink opens l, fresh or recycled (Reuse), as a connection over r into
// inbox: every field is set again but its contended stage (Contend), and a
// recycled link keeps its abort channel unless it was torn, which closed it.
// faults, if non-nil, is consulted on every send (chaos.Injector.Faults);
// reg, if non-nil, records the per-link frame/byte/drop counters and the
// carrier's delivery-latency histogram.
func NewLink(l *Link, r Route, inbox Inbox, faults Faults, reg *metrics.Registry) *Link {
	// The label identifies the link's metrics block (names are composed from
	// it when the registry is read). It is spelled on the stack and becomes a
	// string only with the block: a pair dialed before allocates none.
	var buf [64]byte
	spelled := append(buf[:0], r.Kind...)
	spelled = appendRef(append(spelled, ':'), r.Src)
	spelled = appendRef(append(spelled, "->"...), r.Dst)
	b, label := reg.SharedBytes(linkFamily, spelled)
	abort, contended := l.abort, l.contended
	if abort == nil || l.torn.Load() {
		abort = make(chan struct{})
	}
	*l = Link{
		route:     r,
		label:     label,
		inbox:     inbox,
		faults:    faults,
		mFrames:   b.Counter(0),
		mBytes:    b.Counter(1),
		mDrops:    b.Counter(2),
		hDeliver:  reg.Shared(kindFamily, r.Kind).Histogram(0),
		abort:     abort,
		contended: contended,
	}
	return l
}

// Reuse returns what a constructor opens in place: into's first, a
// connection end a query that finished clean handed back, or a fresh T.
func Reuse[T any](into []*T) *T {
	if len(into) > 0 && into[0] != nil {
		return into[0]
	}
	return new(T)
}

// appendRef appends "<cluster>:<node>".
func appendRef(b []byte, n NodeRef) []byte {
	b = append(append(b, n.Cluster...), ':')
	return strconv.AppendInt(b, int64(n.Node), 10)
}

// Kind returns the carrier of the link ("mpi", "tcp", "udp").
func (l *Link) Kind() string { return l.route.Kind }

// Label returns the link's name, "<kind>:<src>-><dst>" — the key of its
// link.* metrics, which sender drivers reuse for their send.* metrics.
func (l *Link) Label() string { return l.label }

// Stages returns the route's stages: every device a frame of this link is
// charged on, in order.
func (l *Link) Stages() []vtime.Stage { return l.route.Stages }

// StageBits is how many low bits of a route request's key number its stage:
// a route that crosses one device twice (a link between two processes of one
// node) keys each crossing apart.
const StageBits = 8

// Send implements Conn: it takes the fault verdict (by the link's own frame
// sequence number), submits the frame's stages as one request chain keyed by
// its producer and Frame.Seq, stamps the hops of a traced frame and hands it
// to the receiver. The returned instant is when the sender-side stage
// released the frame. The frame becomes its delivery once, at the hand-off,
// which moves it on by reference.
func (l *Link) Send(fr Frame) (vtime.Time, error) {
	// Once Send is called the link owns the frame, success or failure:
	// every error path recycles a pooled payload, so senders never touch it
	// again.
	if l.closed.Load() {
		Recycle(&fr)
		return 0, ErrClosed
	}
	seq := l.seq
	l.seq++
	if l.torn.Load() {
		Recycle(&fr)
		return 0, l.aborted()
	}
	s := len(fr.Payload)
	var v Verdict
	if l.faults != nil {
		v = l.faults.OnSend(l.route.Src, l.route.Dst, seq, fr.Ready, fr.Last)
	}
	if v.Err != nil {
		Recycle(&fr)
		return 0, v.Err
	}
	lost := l.Lose != nil && !fr.Last && l.Lose(seq)

	stages := l.route.Stages
	if lost {
		stages = stages[:1] // the frame leaves the sender, never to arrive
	}
	traced := fr.Note != nil && fr.Note.TraceID != 0 && !lost
	if traced {
		fr.Note.Hops = slices.Grow(fr.Note.Hops, len(stages))
	}
	// The stages are one chain, submitted in runs of requests built on the
	// stack, each run ready when the one before released the frame.
	var buf [4]vtime.Request
	owner, t, senderFree := QueryOf(fr.Source), fr.Ready, vtime.Time(0)
	for i := 0; i < len(stages); {
		run := buf[:min(len(buf), len(stages)-i)]
		for k := range run {
			run[k] = vtime.Request{Resource: stages[i+k].Resource, Stream: fr.Source, Seq: fr.Seq<<StageBits | uint64(i+k), Ready: t, Service: stages[i+k].Service(s)}
		}
		l.Sender.Submit(owner, run)
		if i == 0 {
			senderFree = run[0].End
		}
		for k := range run {
			if label := stages[i+k].Label; traced && label != "" {
				fr.Note.Hops = append(fr.Note.Hops, Hop{Name: label, At: run[k].End})
			}
		}
		t = run[len(run)-1].End
		i += len(run)
	}
	if lost {
		// No receiver driver will see it: its pooled payload goes back here.
		l.mDrops.Inc()
		Recycle(&fr)
		return senderFree, nil
	}
	// Injected latency lands on the last stage, so the final hop of a traced
	// frame is stamped with its arrival time.
	t = t.Add(v.Delay)
	if traced && stages[len(stages)-1].Label != "" {
		fr.Note.Hops[len(fr.Note.Hops)-1].At = t
	}

	// Sizes are captured before the hand-off: the receiver owns the frame
	// afterwards.
	ready := fr.Ready
	if err := l.deliver(&Delivered{Frame: fr, At: t, ViaTCP: l.route.ViaTCP}); err != nil {
		return senderFree, err
	}
	l.mFrames.Inc()
	l.mBytes.Add(int64(s))
	l.hDeliver.Observe(t.Sub(ready))
	return senderFree, nil
}

// deliver hands a charged frame to the receiving inbox, where it wakes the
// receiver at its arrival and flow control parks its sender, unless the link
// is aborted (a torn stream must not wedge its producer on flow control). A
// receiver that shut its inbox, or is done, reads no more: the frame is
// dropped as if delivered.
func (l *Link) deliver(d *Delivered) error {
	if !vtime.Send(l.Sender, l.Receiver, l.inbox, d, d.At, l.abort) {
		Recycle(&d.Frame)
		if l.torn.Load() {
			return l.aborted()
		}
	}
	return nil
}

func (l *Link) aborted() error {
	return fmt.Errorf("carrier: %s aborted: %w", l.label, ErrClosed)
}

// Abort unblocks a Send stalled on flow control and fails subsequent
// deliveries; the connection is torn without cooperation from the consumer.
func (l *Link) Abort() {
	if l.torn.CompareAndSwap(false, true) {
		close(l.abort)
		vtime.Wake(l.Receiver, l.inbox)
	}
}

// Close implements Conn. Whatever the carrier registered at Dial for
// contention modeling outlives it: virtual-time penalties must not depend on
// the wall-clock order in which producers happen to finish.
func (l *Link) Close() error {
	l.closed.Store(true)
	return nil
}
