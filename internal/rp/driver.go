package rp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/marshal"
	"scsq/internal/metrics"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// SenderConfig configures a sender driver.
type SenderConfig struct {
	// BufBytes is the send-buffer size: marshaled bytes are flushed in
	// frames of this size (a trailing partial frame is flushed at end of
	// stream). This is the buffer-size knob of Figures 6 and 8.
	BufBytes int
	// Mode selects single or double buffering: with a single buffer the
	// next object cannot be marshaled until the previous buffer has left
	// the sending device; with double buffers one buffer is filled while
	// the other is transmitted.
	Mode carrier.Buffering
	// MarshalPerByte is the CPU cost to marshal one byte.
	MarshalPerByte float64
	// Cost, if non-nil, scales CPU work by its buffer-size dependent
	// cache-pressure factor (used for BG compute nodes).
	Cost *hw.CostModel
	// FlushPerElement flushes each marshaled object as one frame, however
	// large, instead of packing fixed-size buffers. The TCP carrier uses
	// this — applications write whole arrays and rely on the buffering of
	// the TCP stack (paper §3) — while the MPI carrier packs buffers of
	// BufBytes, the knob of Figures 6 and 8.
	FlushPerElement bool
	// CPU is the sending node's CPU resource.
	CPU *vtime.Resource
	// Metrics receives the driver's marshal and flush latency in virtual
	// time, keyed by the carrier kind of Link. Nil disables.
	Metrics *metrics.Registry
	// Tracer, if non-nil, enables frame-level tracing: the driver assigns
	// each flushed frame a deterministic trace ID and emits its flush span.
	Tracer *metrics.Tracer
	// Link names the connection for per-link metrics and trace lanes, e.g.
	// "mpi:bg:1->bg:0". The prefix before the first colon is the carrier
	// kind, under which latency histograms aggregate.
	Link string
}

// The drivers' metric families. A sender's latency histograms are keyed by
// the carrier kind, like the carrier's link.deliver_vt.*: what it flushes is
// what its link counts (link.frames, link.bytes, link.drops). A receiver's
// block is keyed by its consumer's id in the query's scope. Only the driving
// process writes them, in its turn.
var (
	sendKindFamily = &metrics.Family{Hists: []string{"send.marshal_vt.", "send.flush_vt."}, Turn: true}
	recvFamily     = &metrics.Family{
		Counters: []string{"recv.frames.", "recv.bytes."},
		// Instantaneous queue depth depends on wall-clock scheduling, not the
		// virtual schedule: rt. marks it out of the determinism guarantee.
		Gauges: []string{metrics.RTPrefix + "inbox_depth."},
		Hists:  []string{"recv.demarshal_vt."},
		Turn:   true,
	}
)

// Sender is a sender driver: it marshals outgoing elements into send
// buffers and ships them over one carrier connection (paper §2.3: "the
// sender driver ... marshals them and sends the buffer contents to
// subscribers").
type Sender struct {
	cfg    SenderConfig // MarshalPerByte includes the cache factor of BufBytes
	conn   carrier.Conn
	source string
	// seq numbers the marshal requests and the frames, keyed (query,
	// source, *seq): the process's sqep.Ctx.Seq once RP.Subscribe shares
	// it, else ownSeq.
	seq    *uint64
	agent  *vtime.Agent // the producing process's, in whose turn it marshals
	ownSeq uint64

	// pending holds marshaled bytes not yet flushed; frames are copied out
	// of pending[head:], so a flush costs its frame, not the tail behind it.
	// A top-level array is never staged there whole: while push flushes it,
	// arr is the array and arrOff counts the bytes of its arrSize-byte
	// encoding already flushed, the unflushed stream being pending[head:]
	// followed by that encoding from arrOff. Only the array's tail, shorter
	// than one buffer, is appended to pending before push returns. arrEnc is
	// the array's encoding when it is an immutable gen_array template
	// (sqep.Encoding): a frame wholly inside it borrows its window instead of
	// copying it.
	pending   []byte
	head      int
	arr       []float64
	arrEnc    []byte
	arrOff    int
	arrSize   int
	pendReady vtime.Time
	// history of sender-device completion times for the last two flushed
	// buffers; single buffering gates marshaling on the last one, double
	// buffering on the one before.
	hist [2]vtime.Time

	framesOut int64
	bytesOut  int64

	// Cached metric handles (nil-safe no-ops without a registry) and the
	// deterministic trace-ID base: a hash of the stream identity, combined
	// with the frame sequence number per flush, so trace IDs never depend
	// on goroutine scheduling the way a shared counter would.
	hMarshal  *metrics.Histogram
	hFlush    *metrics.Histogram
	traceBase uint64
}

// init opens d, fresh or recycled, as source's sender over conn: every
// field is set again but pending's capacity (its bytes never leave d).
func (d *Sender) init(source string, conn carrier.Conn, cfg SenderConfig) error {
	if cfg.BufBytes <= 0 {
		return fmt.Errorf("rp: sender buffer size must be positive, got %d", cfg.BufBytes)
	}
	if cfg.Mode != carrier.SingleBuffered && cfg.Mode != carrier.DoubleBuffered {
		return fmt.Errorf("rp: invalid buffering mode %d", cfg.Mode)
	}
	if cfg.Cost != nil {
		cfg.MarshalPerByte *= cfg.Cost.CacheFactor(cfg.BufBytes)
	}
	*d = Sender{cfg: cfg, conn: conn, source: source, seq: &d.ownSeq, pending: d.pending[:0]}
	kind, _, _ := strings.Cut(cfg.Link, ":")
	byKind := cfg.Metrics.Shared(sendKindFamily, kind)
	d.hMarshal, d.hFlush = byKind.Histogram(0), byKind.Histogram(1)
	if cfg.Tracer != nil {
		h := fnv.New64a()
		_, _ = h.Write([]byte(cfg.Link))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(source))
		d.traceBase = h.Sum64()
	}
	return nil
}

// bufferFreeAt reports when a send buffer is available for marshaling the
// next element, per the buffering discipline.
func (d *Sender) bufferFreeAt() vtime.Time {
	if d.cfg.Mode == carrier.DoubleBuffered {
		return d.hist[0] // two flushes ago
	}
	return d.hist[1] // previous flush
}

// unflushed is the number of marshaled bytes no frame has carried yet.
func (d *Sender) unflushed() int {
	return len(d.pending) - d.head + d.arrSize - d.arrOff
}

// push marshals el behind the pending bytes, flushing full frames.
func (d *Sender) push(el sqep.Element) error {
	// Compact the unflushed tail (shorter than one buffer) so the backing
	// array is reused rather than grown past the flushed head.
	d.pending = d.pending[:copy(d.pending, d.pending[d.head:])]
	d.head = 0
	var added int
	var err error
	if arr, ok := el.Value.([]float64); ok {
		// Size of the boxed value: boxing arr again would allocate.
		if added, err = marshal.Size(el.Value); err != nil {
			return err
		}
		d.arr, d.arrOff, d.arrSize = arr, 0, added
		d.arrEnc, _ = sqep.Encoding(arr)
	} else {
		before := len(d.pending)
		if d.pending, err = marshal.Append(d.pending, el.Value); err != nil {
			return err
		}
		added = len(d.pending) - before
	}

	// Charge the marshal work on the node CPU, gated by buffer
	// availability.
	q := [1]vtime.Request{{
		Resource: d.cfg.CPU, Stream: d.source, Seq: *d.seq,
		Ready:   max(el.At, d.bufferFreeAt(), d.pendReady),
		Service: vtime.Duration(d.cfg.MarshalPerByte * float64(added)),
	}}
	*d.seq++
	d.agent.Submit(carrier.QueryOf(d.source), q[:])
	d.pendReady = q[0].End
	d.hMarshal.Observe(q[0].End.Sub(q[0].Ready))

	if d.cfg.FlushPerElement {
		err = d.flushFrame(d.unflushed(), false)
	} else {
		err = d.flushFull()
	}
	if d.arr != nil {
		// The element is the caller's again once push returns: stage what no
		// frame took. After a failed flush the stream is over, and its bytes
		// with it.
		if tail := d.arrSize - d.arrOff; tail > 0 && err == nil {
			k := len(d.pending)
			d.pending = slices.Grow(d.pending, tail)[:k+tail]
			marshal.CopyArray(d.pending[k:], d.arr, d.arrOff)
		}
		d.arr, d.arrEnc, d.arrOff, d.arrSize = nil, nil, 0, 0
	}
	return err
}

// flushFull flushes every full buffer of unflushed bytes.
func (d *Sender) flushFull() error {
	for d.unflushed() >= d.cfg.BufBytes {
		if err := d.flushFrame(d.cfg.BufBytes, false); err != nil {
			return err
		}
	}
	return nil
}

// finish flushes the remaining bytes and the end-of-stream frame.
func (d *Sender) finish() error {
	if err := d.flushFull(); err != nil {
		return err
	}
	return d.flushFrame(len(d.pending)-d.head, true) // possibly empty last frame
}

func (d *Sender) flushFrame(n int, last bool) error {
	// The carrier owns the frame once Send is called — error paths recycle a
	// pooled payload — so the frame is a pooled copy of the bytes still
	// sitting in pending and in the array being flushed, unless it lies
	// wholly inside an immutable array's encoding: then it borrows that
	// window of it, unpooled.
	var traceID uint64
	if d.cfg.Tracer != nil {
		traceID = d.traceBase ^ uint64(d.framesOut+1)
	}
	var payload []byte
	pooled := false
	switch {
	case n == 0:
	case d.arrEnc != nil && d.head == len(d.pending):
		payload = d.arrEnc[d.arrOff : d.arrOff+n : d.arrOff+n]
	default:
		payload, pooled = carrier.GetBuf(n), true
		if k := copy(payload, d.pending[d.head:]); k < n {
			marshal.CopyArray(payload[k:], d.arr, d.arrOff)
		}
	}
	fr := carrier.Frame{
		Source:  d.source,
		Payload: payload,
		Ready:   d.pendReady,
		Seq:     *d.seq,
		Last:    last,
		Pooled:  pooled,
	}
	*d.seq++
	if traceID != 0 {
		// Hops[0] names the link: it seeds the Perfetto lane receivers
		// emit into, and carriers append their waypoints after it.
		fr.Note = &carrier.Note{TraceID: traceID, Hops: []carrier.Hop{{Name: d.cfg.Link, At: d.pendReady}}}
	}
	free, err := d.conn.Send(fr)
	if err != nil {
		return err
	}
	d.hFlush.Observe(free.Sub(d.pendReady))
	if traceID != 0 {
		d.cfg.Tracer.Span(d.cfg.Link, "send", "flush", traceID, d.pendReady, free, int64(n))
	}
	k := min(n, len(d.pending)-d.head)
	d.head += k
	d.arrOff += n - k

	d.hist[0], d.hist[1] = d.hist[1], free
	d.framesOut++
	d.bytesOut += int64(n)
	return nil
}

// finishDown terminates the stream with a failure-propagation frame: the
// subscriber's receiver surfaces it as ErrUpstreamDown instead of treating
// the stream as cleanly complete. Down frames are final frames, so they ride
// the reliable termination path rate faults exempt.
func (d *Sender) finishDown(cause error) error {
	*d.seq++
	_, err := d.conn.Send(carrier.Frame{
		Source: d.source,
		Ready:  d.pendReady,
		Seq:    *d.seq - 1,
		Last:   true,
		Down:   true,
		Note:   &carrier.Note{DownErr: cause.Error()},
	})
	return err
}

func (d *Sender) close() error { return d.conn.Close() }

// ReceiverConfig configures a receiver driver.
type ReceiverConfig struct {
	// Producers is the number of upstream connections feeding the inbox;
	// the stream ends after this many Last frames.
	Producers int
	// MPIPerByte is the CPU cost to de-marshal one byte arriving over the
	// MPI carrier.
	MPIPerByte float64
	// TCPPerByte is the CPU cost to de-marshal one byte arriving over the
	// TCP carrier (a BG compute node's inbound-TCP rate differs from its
	// MPI rate).
	TCPPerByte float64
	// Cost, if non-nil, scales the CPU work for MPI frames by its
	// buffer-size cache-pressure factor.
	Cost *hw.CostModel
	// MergeSwitchCost is the expected per-frame source-switching cost a
	// single RP pays when merging several inbound TCP streams; it is
	// charged as cost·(p−1)/p for p producers, the expected alternation
	// rate of symmetric producers. MPI frames are exempt: their switching
	// is charged by the carrier at the co-processor.
	MergeSwitchCost vtime.Duration
	// CPU is the receiving node's CPU resource.
	CPU *vtime.Resource
	// TrackOffsets has no effect: no producer replays a stream, so a receiver
	// ingests every frame it pulls. It stays only for callers that still set
	// it (ROADMAP item 11).
	TrackOffsets bool
	// BatchFrames bounds how many inbox frames are drained and charged per
	// kernel commit: after one blocking receive, up to BatchFrames-1 further
	// frames already sitting in the inbox are pulled non-blocking and their
	// de-marshal requests submitted on the CPU as one chain (Agent.Submit).
	// Values <= 1 submit one frame at a time. Batching does not change the
	// virtual schedule: frame i's de-marshal becomes ready at max(arrival,
	// end of frame i-1's de-marshal) either way.
	BatchFrames int
	// Metrics is the consuming query's scope: it receives the receiver's
	// telemetry (frames/bytes ingested, de-marshal latency, inbox high-water
	// depth) under Consumer. Nil disables.
	Metrics *metrics.Scope
	// Tracer, if non-nil, makes the receiver emit transfer/hop/de-marshal
	// trace events for frames carrying a trace ID.
	Tracer *metrics.Tracer
	// Consumer names the ingesting RP (or client) in metric names.
	Consumer string
}

// ErrUpstreamDown reports that a producer terminated its stream with a
// failure instead of a clean end: the failure travelled the stream as a
// Down frame (or was injected by the engine on behalf of a crashed node
// that could not send one).
var ErrUpstreamDown = errors.New("rp: upstream producer down")

// Receiver is the receiving half of a stream connection: it buffers
// incoming frames, de-marshals (materializes) them into objects — or, for a
// consumer that reads no value, only checks them — and feeds the RP's SQEP
// (paper §2.3, Figure 3). It implements sqep.Operator so extract() and
// merge() appear as SQEP leaves.
type Receiver struct {
	cfg   ReceiverConfig
	inbox carrier.Inbox
	agent *vtime.Agent // the consuming process's (Ctx.Agent, read at Open)

	// prods holds a slot per producer, sized by cfg.Producers; hit is the
	// slot found last, where the next search starts.
	prods []producer
	hit   int
	// tail is the end of the last de-marshal: the ready floor of the next
	// batch's chain.
	tail vtime.Time
	// batch holds the frames drained for the current kernel commit and reqs
	// their de-marshal requests, keyed by producer and frame key; Next
	// decodes the frames one value at a time. batch[cur] is the frame being
	// decoded: data is its byte stream (the payload, or the producer's
	// non-empty reassembly buffer with the payload appended) and off the
	// decode cursor; data is nil until the frame's first value is asked for.
	batch []carrier.Delivered
	reqs  []vtime.Request
	cur   int
	data  []byte
	off   int
	// deferred is the Down or closed-inbox error that cut the current batch
	// short; it surfaces once the frames staged before it are consumed.
	deferred error
	// reuse is set by a consumer that borrows values: loan then lends it
	// each scalar and top-level array, which the next one overwrites.
	// loan.Arr is leased from the pool at the first array and goes back once
	// the consumer has been told the stream is over, or closes the receiver.
	// unread is set by one that reads no value: a value split over frames
	// is then counted off (producer.skip) instead of reassembled.
	reuse, unread, done bool
	loan                marshal.Loan
	lastsSeen           int
	// boxes holds the integers and floats an Owned consumer is handed.
	boxes marshal.Boxes

	framesIn      int64  // frames ingested: numbers the tracer's net lanes
	demarshalLane string // the tracer's de-marshal lane, named once

	// Cached metric handles; nil-safe no-ops without a registry.
	mFrames    *metrics.Counter
	mBytes     *metrics.Counter
	hDemarshal *metrics.Histogram
	gDepth     *metrics.Gauge
}

var _ sqep.Operator = (*Receiver)(nil)

// NewReceiver opens a receiver over inbox, fresh or the one passed after cfg
// (carrier.Reuse): every field is set again but the capacity of its tables.
// What a consumer may still read — the boxes, a leased loan.Arr — is not reused.
func NewReceiver(inbox carrier.Inbox, cfg ReceiverConfig, into ...*Receiver) *Receiver {
	if cfg.Producers < 1 {
		cfg.Producers = 1
	}
	r := carrier.Reuse(into)
	*r = Receiver{cfg: cfg, inbox: inbox, prods: slices.Grow(r.prods[:0], cfg.Producers), batch: r.batch[:0], reqs: r.reqs[:0]}
	if cfg.Tracer != nil {
		r.demarshalLane = "demarshal " + cfg.Consumer
	}
	b := cfg.Metrics.Block(recvFamily, cfg.Consumer)
	r.mFrames, r.mBytes, r.gDepth, r.hDemarshal = b.Counter(0), b.Counter(1), b.Gauge(0), b.Histogram(0)
	return r
}

// Inbox returns the inbox r read to the end of every stream, for a receiver
// opened in its place (NewReceiver with it and r), or nil: r is nil, a
// stream did not end (Close may have shut the inbox), or a frame is left.
func (r *Receiver) Inbox() carrier.Inbox {
	if r == nil || r.lastsSeen < r.cfg.Producers || len(r.inbox) > 0 {
		return nil
	}
	return r.inbox
}

// Open implements sqep.Operator.
func (r *Receiver) Open(ctx *sqep.Ctx) error {
	if ctx != nil {
		r.agent = ctx.Agent
	}
	return nil
}

// producer is one upstream stream's slot in a receiver. buf is its
// reassembly buffer: objects split across frames continue within one
// producer's byte stream even when frames from several producers interleave
// (merge). It is leased from the frame pool at the producer's first split
// object, moves up one size class at a time as the object's bytes arrive, and
// goes back when the producer's stream ends or the receiver is closed.
// skip is an unread value split over frames.
type producer struct {
	src  string
	buf  []byte
	skip skipping
}

// producer returns src's slot, adding one at src's first frame.
func (r *Receiver) producer(src string) *producer {
	if r.hit >= len(r.prods) || r.prods[r.hit].src != src {
		r.hit = slices.IndexFunc(r.prods, func(p producer) bool { return p.src == src })
		if r.hit < 0 {
			r.hit, r.prods = len(r.prods), append(r.prods, producer{src: src})
		}
	}
	return &r.prods[r.hit]
}

// UseValues implements sqep.ValueUser.
func (r *Receiver) UseValues(u sqep.ValueUse) {
	r.reuse, r.unread = u == sqep.Borrowed, u == sqep.Unread
}

// skipping is an unread value split over frames: have bytes came, left are
// to come. They count in 64 bits: an array header may claim 2³⁵ bytes.
type skipping struct{ have, left int64 }

// Next implements sqep.Operator. It blocks until an element is available or
// the stream ends (all producers sent their Last frame).
func (r *Receiver) Next() (sqep.Element, bool, error) {
	for {
		for r.cur < len(r.batch) {
			el, ok, err := r.decodeNext()
			if err != nil {
				r.dropStaged()
				return sqep.Element{}, false, err
			}
			if ok {
				return el, true, nil
			}
		}
		if err := r.deferred; err != nil {
			r.deferred = nil
			return sqep.Element{}, false, err
		}
		if r.done {
			// Asking again ended the last element's lifetime.
			r.release()
			return sqep.Element{}, false, nil
		}
		if err := r.fill(); err != nil {
			return sqep.Element{}, false, err
		}
	}
}

// fill blocks for one frame, drains up to BatchFrames-1 further frames
// already queued in the inbox, and commits them as one batch, taken in key
// order: by arrival time, then producer and frame key, each producer's
// frames in the order it sent them. A final frame — Last, Down — ends the
// drain and stays last: pulling past a stream's end would ingest frames the
// serial loop never reads once done is set. A Down frame or closed inbox
// truncates the batch: the frames before it are still staged, and the error
// is deferred until they have been decoded.
func (r *Receiver) fill() error {
	r.gDepth.SetMax(int64(len(r.inbox)))
	fr, ok := vtime.Recv(r.agent, vtime.Inbox, r.inbox, nil)
	if !ok {
		return errInboxClosed
	}
	maxBatch := max(r.cfg.BatchFrames, 1)
	r.batch = append(r.batch, fr)
	// An empty inbox ends the drain; a closed one surfaces at the next fill,
	// once the frames staged before it are decoded.
	for !fr.Last && !fr.Down && len(r.batch) < maxBatch {
		if fr, ok = vtime.Recv(r.agent, vtime.Running, r.inbox, nil); !ok {
			break
		}
		r.batch = append(r.batch, fr)
	}
	// A final frame stays last; a Down one is not staged.
	n := len(r.batch)
	if last := &r.batch[n-1]; last.Last || last.Down {
		n--
	}
	inKeyOrder(r.batch[:n])
	if down := &r.batch[len(r.batch)-1]; down.Down {
		r.deferred = fmt.Errorf("rp: producer %q failed: %s: %w", down.Source, down.Note.DownErr, ErrUpstreamDown)
		carrier.Recycle(&down.Frame)
		*down = carrier.Delivered{}
		r.batch = r.batch[:len(r.batch)-1]
	}
	for i := range r.batch {
		r.price(&r.batch[i])
	}
	r.ingestBatch()
	return nil
}

// inKeyOrder sorts frames by (arrival, producer) without moving one past a
// frame of its own producer, so each producer's frames keep their key order:
// an insertion sort, as a batch holds a handful.
func inKeyOrder(fs []carrier.Delivered) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0; j-- {
			a, b := &fs[j-1], &fs[j]
			if a.Source == b.Source || a.At < b.At || a.At == b.At && a.Source < b.Source {
				break
			}
			fs[j-1], fs[j] = fs[j], fs[j-1]
		}
	}
}

var errInboxClosed = errors.New("rp: inbox closed before end of stream")

// price counts one staged frame in and queues its de-marshal request.
func (r *Receiver) price(fr *carrier.Delivered) {
	payload := fr.Payload
	r.framesIn++
	r.mFrames.Inc()
	r.mBytes.Add(int64(len(payload)))

	var svc vtime.Duration
	if fr.ViaTCP {
		svc = vtime.Duration(r.cfg.TCPPerByte * float64(len(payload)))
		if p := r.cfg.Producers; p > 1 && r.cfg.MergeSwitchCost > 0 {
			svc += vtime.Duration(float64(r.cfg.MergeSwitchCost) * float64(p-1) / float64(p))
		}
	} else {
		svc = vtime.Duration(r.cfg.MPIPerByte * float64(len(payload)))
		if r.cfg.Cost != nil && len(payload) > 0 {
			svc = vtime.Duration(float64(svc) * r.cfg.Cost.CacheFactor(len(payload)))
		}
	}
	r.reqs = append(r.reqs, vtime.Request{Resource: r.cfg.CPU, Stream: fr.Source, Seq: fr.Seq, Ready: fr.At, Service: svc})
}

// ingestBatch submits the staged frames' de-marshal requests on the node CPU
// as one chain continuing the last batch's, in the consumer's turn; Next
// decodes them in the order they were staged.
func (r *Receiver) ingestBatch() {
	if len(r.reqs) == 0 {
		return
	}
	r.reqs[0].Ready = max(r.reqs[0].Ready, r.tail)
	r.agent.Submit(carrier.QueryOf(r.cfg.Consumer), r.reqs)
	r.tail = r.reqs[len(r.reqs)-1].End
	for i := range r.batch {
		r.observe(&r.batch[i], &r.reqs[i], r.framesIn-int64(len(r.batch)-1-i))
	}
}

// netLanes are the tracer's two transfer rows: spans of back-to-back frames
// overlap under double buffering, so they alternate.
var netLanes = [2]string{"net-0", "net-1"}

// observe records the de-marshal span of the n-th frame ingested.
func (r *Receiver) observe(fr *carrier.Delivered, q *vtime.Request, n int64) {
	r.hDemarshal.Observe(q.End.Sub(q.Ready))

	if t := r.cfg.Tracer; t != nil && fr.Note != nil && fr.Note.TraceID != 0 {
		// The frame's journey renders in the lane its sender named in
		// Hops[0].
		note := fr.Note
		proc := fr.Source
		if len(note.Hops) > 0 {
			proc = note.Hops[0].Name
		}
		t.Span(proc, netLanes[n&1], "transfer", note.TraceID, fr.Ready, fr.At, int64(len(fr.Payload)))
		for _, h := range note.Hops[1:] {
			t.Instant(proc, "hops", h.Name, note.TraceID, h.At)
		}
		t.Span(proc, r.demarshalLane, "demarshal", note.TraceID, q.Ready, q.End, int64(len(fr.Payload)))
	}
}

// decodeNext returns the next value of the current staged frame, stamped
// with the end of that frame's de-marshal. Once the frame holds no further
// complete value (ok is false) — or as soon as its last byte is decoded — the
// undecoded remainder moves to the producer's reassembly buffer, the payload
// is recycled, a Last frame is counted, and the next staged frame is current.
func (r *Receiver) decodeNext() (el sqep.Element, ok bool, err error) {
	fr := &r.batch[r.cur]
	src := fr.Source
	if r.data == nil {
		// With no partial object pending from this producer, decode straight
		// out of the frame payload; otherwise it continues a value being
		// skipped, or the reassembly buffer and can go back to the pool.
		r.data = fr.Payload
		if pr := r.producer(src); pr.skip.left > 0 {
			r.off = int(min(pr.skip.left, int64(len(r.data))))
			ok = int64(r.off) == pr.skip.left
			pr.skip = skipping{pr.skip.have + int64(r.off), pr.skip.left - int64(r.off)}
		} else if len(pr.buf) > 0 {
			// The old lease may be back in the pool: forget it before
			// anything fails.
			r.data = appendLease(pr.buf, fr.Payload)
			pr.buf = r.data
			carrier.Recycle(&fr.Frame)
		}
	}
	if !ok && r.off < len(r.data) {
		var n int
		el.Value, n, err = r.decode(r.data[r.off:])
		switch {
		case err == nil:
			r.off += n
			ok = true
		case err != marshal.ErrTruncated:
			return sqep.Element{}, false, err
		}
	}
	if ok {
		el.At, el.Src = r.reqs[r.cur].End, src
		if r.off < len(r.data) {
			return el, true, nil
		}
	}
	rest := r.data[r.off:]
	pr := r.producer(src)
	if size := r.skipSize(rest); size > 0 {
		// An unread value's missing bytes are counted off, not kept.
		pr.skip = skipping{int64(len(rest)), size - int64(len(rest))}
		rest = rest[:0]
	}
	if len(pr.buf) > 0 {
		// data is the reassembly buffer: slide the remainder to the front so
		// the lease is reused instead of growing every frame.
		pr.buf = r.data[:copy(r.data, rest)]
	} else if len(rest) > 0 {
		// Copy out of the (possibly pooled) payload before it is recycled.
		pr.buf = appendLease(pr.buf, rest)
	}
	last := fr.Last
	r.popStaged()
	if last {
		carrier.PutBuf(pr.buf)
		pr.buf = nil
		undecoded := int64(len(rest))
		if pr.skip.left > 0 {
			undecoded = pr.skip.have
		}
		if undecoded > 0 {
			return sqep.Element{}, false, fmt.Errorf("rp: stream from %q ended with %d undecoded bytes", src, undecoded)
		}
		r.countLast()
	}
	return el, ok, nil
}

// decode materializes the value at the front of buf; for an Unread consumer
// it only checks it (marshal.Skip), and to a borrowing one it lends it: a
// top-level array lands in the leased loan.Arr, which is sized by arrays
// that are wholly here: a header alone, whatever it claims, leases nothing.
func (r *Receiver) decode(buf []byte) (any, int, error) {
	if r.unread {
		n, err := marshal.Skip(buf)
		return nil, n, err
	}
	if !r.reuse {
		return r.boxes.Decode(buf)
	}
	if len(buf) > 0 && buf[0] == marshal.TagArray {
		if size, err := marshal.Skip(buf); err == nil && cap(r.loan.Arr) < (size-5)/8 {
			carrier.PutFloats(r.loan.Arr)
			r.loan.Arr = carrier.GetFloats((size - 5) / 8)
		}
	}
	return r.loan.Decode(buf)
}

// skipSize is, for an Unread consumer, the encoded size of the value cut
// short at the front of rest when what arrived of it tells: a scalar's tag
// does, an array's or a string's 5-byte header does. It is 0 for a bag, whose
// elements size it, for a cut header, and for nothing at all. The u32 length
// is widened before it is scaled: an int may have 32 bits.
func (r *Receiver) skipSize(rest []byte) int64 {
	switch {
	case !r.unread || len(rest) == 0:
	case rest[0] == marshal.TagInt || rest[0] == marshal.TagFloat:
		return 9
	case rest[0] == marshal.TagBool:
		return 2
	case len(rest) < 5:
	case rest[0] == marshal.TagString:
		return 5 + int64(binary.LittleEndian.Uint32(rest[1:5]))
	case rest[0] == marshal.TagArray:
		return 5 + 8*int64(binary.LittleEndian.Uint32(rest[1:5]))
	}
	return 0
}

// appendLease appends more to the leased buf. A lease too small for it is
// swapped for one of a larger class — at least the next one, so a stream
// holds memory in proportion to the bytes it delivered and copies each of
// them a bounded number of times — and goes back to the pool.
func appendLease(buf, more []byte) []byte {
	if cap(buf)-len(buf) < len(more) {
		grown := leaseBuf(max(len(buf)+len(more), 2*cap(buf)))[:len(buf)]
		copy(grown, buf)
		carrier.PutBuf(buf)
		buf = grown
	}
	return append(buf, more...)
}

// leaseBuf leases every reassembly buffer (a test counts the leases).
var leaseBuf = carrier.GetBuf

// release returns the receiver's leases to the pool. Nothing a consumer can
// still read lives in them: reassembly bytes never leave the receiver, and
// the loan's last value died when the consumer asked for the next or closed.
func (r *Receiver) release() {
	for i := range r.prods {
		carrier.PutBuf(r.prods[i].buf)
		r.prods[i].buf = nil
	}
	carrier.PutFloats(r.loan.Arr)
	r.loan.Arr = nil
}

// popStaged recycles the current staged frame and makes the next one
// current.
func (r *Receiver) popStaged() {
	carrier.Recycle(&r.batch[r.cur].Frame)
	r.batch[r.cur] = carrier.Delivered{}
	r.data, r.off = nil, 0
	if r.cur++; r.cur == len(r.batch) {
		r.batch, r.reqs, r.cur = r.batch[:0], r.reqs[:0], 0
	}
}

// dropStaged recycles every staged frame undecoded: their de-marshal was
// already charged, their payloads still go back to the pool exactly once.
func (r *Receiver) dropStaged() {
	for r.cur < len(r.batch) {
		r.popStaged()
	}
}

// countLast records one producer's end of stream.
func (r *Receiver) countLast() {
	r.lastsSeen++
	if r.lastsSeen >= r.cfg.Producers {
		r.done = true
	}
}

// Close implements sqep.Operator. A consumer that stops before its
// producers shuts its inbox (vtime.Shut): their senders wake, their later
// frames are dropped as if delivered, and what the inbox holds goes back to
// the pool. A receiver with no kernel (a nil agent) gets no drain: its
// senders block until someone else reads the inbox.
func (r *Receiver) Close() error {
	r.dropStaged()
	r.release()
	if !r.done && r.agent != nil {
		vtime.Shut(r.agent, r.inbox)
		for {
			fr, ok := vtime.Recv(r.agent, vtime.Running, r.inbox, nil)
			if !ok {
				break
			}
			carrier.Recycle(&fr.Frame)
		}
	}
	r.done = true
	return nil
}
