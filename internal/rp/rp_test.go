package rp

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/marshal"
	"scsq/internal/metrics"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// loopConn is an in-memory carrier that delivers frames with a fixed
// per-byte latency, for driver tests without a hardware model.
type loopConn struct {
	mu      sync.Mutex
	inbox   carrier.Inbox
	perByte vtime.Duration
	free    vtime.Time // the link serializes frames
	closed  bool
	sent    []carrier.Frame
	viaTCP  bool
}

var _ carrier.Conn = (*loopConn)(nil)

func (c *loopConn) Send(f carrier.Frame) (vtime.Time, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, carrier.ErrClosed
	}
	c.sent = append(c.sent, f)
	start := vtime.MaxTime(f.Ready, c.free)
	at := start.Add(vtime.Duration(len(f.Payload)) * c.perByte)
	c.free = at
	c.mu.Unlock()
	c.inbox <- carrier.Delivered{Frame: f, At: at, ViaTCP: c.viaTCP}
	return at, nil
}

func (c *loopConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func testCtx(t *testing.T) sqep.Ctx {
	t.Helper()
	return sqep.Ctx{CPU: vtime.NewResource("cpu"), Cost: hw.DefaultCostModel()}
}

func TestSenderConfigValidation(t *testing.T) {
	conn := &loopConn{inbox: make(carrier.Inbox, 8)}
	if _, err := newSenderDriver("s", conn, SenderConfig{BufBytes: 0, Mode: carrier.SingleBuffered}); err == nil {
		t.Error("zero buffer should fail")
	}
	if _, err := newSenderDriver("s", conn, SenderConfig{BufBytes: 10, Mode: 0}); err == nil {
		t.Error("invalid mode should fail")
	}
}

func TestSenderFramesExactBufferSize(t *testing.T) {
	inbox := make(carrier.Inbox, 64)
	conn := &loopConn{inbox: inbox}
	d, err := newSenderDriver("s", conn, SenderConfig{BufBytes: 100, Mode: carrier.SingleBuffered})
	if err != nil {
		t.Fatal(err)
	}
	// One 1000-float array marshals to 5+8·125=1005 bytes > 10 frames.
	arr := make([]float64, 125)
	if err := d.push(sqep.Element{Value: arr}); err != nil {
		t.Fatal(err)
	}
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	var total int
	for i, f := range conn.sent {
		total += len(f.Payload)
		if i < len(conn.sent)-1 && len(f.Payload) != 100 {
			t.Errorf("frame %d has %d bytes, want exactly 100", i, len(f.Payload))
		}
	}
	if want, _ := marshal.Size(arr); total != want {
		t.Errorf("total frame bytes = %d, want %d", total, want)
	}
	if !conn.sent[len(conn.sent)-1].Last {
		t.Error("the final frame must be marked Last")
	}
}

func TestSenderFlushPerElement(t *testing.T) {
	inbox := make(carrier.Inbox, 16)
	conn := &loopConn{inbox: inbox}
	d, err := newSenderDriver("s", conn, SenderConfig{
		BufBytes: 1 << 20, Mode: carrier.DoubleBuffered, FlushPerElement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.push(sqep.Element{Value: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	// 3 per-element frames + the Last frame.
	if len(conn.sent) != 4 {
		t.Fatalf("frames = %d, want 4", len(conn.sent))
	}
	for i := 0; i < 3; i++ {
		if len(conn.sent[i].Payload) != 9 {
			t.Errorf("frame %d = %d bytes, want 9 (one int)", i, len(conn.sent[i].Payload))
		}
	}
}

func TestSingleVsDoubleBufferGating(t *testing.T) {
	// With single buffering the next marshal waits for the previous flush;
	// with double buffering it waits for the flush before that — so the
	// double-buffered pipeline finishes sooner.
	run := func(mode carrier.Buffering) vtime.Time {
		inbox := make(carrier.Inbox, 64)
		conn := &loopConn{inbox: inbox, perByte: 10}
		cpu := vtime.NewResource("cpu")
		d, err := newSenderDriver("s", conn, SenderConfig{
			BufBytes: 64, Mode: mode, MarshalPerByte: 5, CPU: cpu,
		})
		if err != nil {
			t.Fatal(err)
		}
		arr := make([]float64, 16) // 133 B, ≥ 2 frames per element
		for i := 0; i < 4; i++ {
			if err := d.push(sqep.Element{Value: arr}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.finish(); err != nil {
			t.Fatal(err)
		}
		return d.hist[1] // last sender-free time
	}
	single := run(carrier.SingleBuffered)
	double := run(carrier.DoubleBuffered)
	if double >= single {
		t.Errorf("double-buffered pipeline (%v) should finish before single (%v)", double, single)
	}
}

func TestReceiverReassemblesAcrossFrames(t *testing.T) {
	inbox := make(carrier.Inbox, 64)
	conn := &loopConn{inbox: inbox}
	d, err := newSenderDriver("src", conn, SenderConfig{BufBytes: 50, Mode: carrier.SingleBuffered})
	if err != nil {
		t.Fatal(err)
	}
	arr := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // 85 bytes -> split
	if err := d.push(sqep.Element{Value: arr}); err != nil {
		t.Fatal(err)
	}
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	r := NewReceiver(inbox, ReceiverConfig{Producers: 1, Metrics: reg.OpenScope("q1"), Consumer: "q1/c"})
	el, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("next: %v %v", ok, err)
	}
	got, ok := el.Value.([]float64)
	if !ok || len(got) != 10 || got[9] != 10 {
		t.Fatalf("reassembled = %v", el.Value)
	}
	if el.Src != "src" {
		t.Errorf("src = %q, want src", el.Src)
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("stream should end cleanly: %v %v", ok, err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["recv.frames.q1/c"]; got < 2 {
		t.Errorf("frames in = %d, want ≥ 2 (split element)", got)
	}
	if want, _ := marshal.Size(arr); snap.Counters["recv.bytes.q1/c"] != int64(want) {
		t.Errorf("bytes in = %d, want %d", snap.Counters["recv.bytes.q1/c"], want)
	}
}

func TestReceiverInterleavedProducers(t *testing.T) {
	// Partial objects from two producers interleave; per-source reassembly
	// must keep them apart.
	inbox := make(carrier.Inbox, 64)
	encode := func(v any) []byte {
		b, err := marshal.Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := encode([]float64{1, 2, 3})
	b := encode([]float64{4, 5, 6})
	inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "a", Payload: a[:10]}}
	inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "b", Payload: b[:12]}}
	inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "a", Payload: a[10:]}}
	inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "b", Payload: b[12:], Last: true}}
	inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "a", Last: true}}

	r := NewReceiver(inbox, ReceiverConfig{Producers: 2})
	var got []sqep.Element
	for {
		el, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, el)
	}
	if len(got) != 2 {
		t.Fatalf("elements = %d, want 2", len(got))
	}
	bySrc := map[string]float64{}
	for _, el := range got {
		bySrc[el.Src] = el.Value.([]float64)[0]
	}
	if bySrc["a"] != 1 || bySrc["b"] != 4 {
		t.Errorf("demultiplexed wrong: %v", bySrc)
	}
}

func TestReceiverStreamEndsWithPartialObject(t *testing.T) {
	inbox := make(carrier.Inbox, 4)
	inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "a", Payload: []byte{marshal.TagInt, 1, 2}, Last: true}}
	r := NewReceiver(inbox, ReceiverConfig{Producers: 1})
	_, _, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "undecoded") {
		t.Errorf("err = %v, want undecoded-bytes error", err)
	}
}

func TestReceiverMergeSwitchChargesTCPOnly(t *testing.T) {
	busyFor := func(viaTCP bool) vtime.Duration {
		inbox := make(carrier.Inbox, 4)
		payload, err := marshal.Append(nil, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "a", Payload: payload, Last: true}, ViaTCP: viaTCP}
		inbox <- carrier.Delivered{Frame: carrier.Frame{Source: "b", Last: true}, ViaTCP: viaTCP}
		cpu := vtime.NewResource("cpu")
		r := NewReceiver(inbox, ReceiverConfig{
			Producers:       2,
			MPIPerByte:      1,
			TCPPerByte:      1,
			MergeSwitchCost: 1000,
			CPU:             cpu,
		})
		for {
			_, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return cpu.BusyTime()
	}
	tcp := busyFor(true)
	mpi := busyFor(false)
	if tcp <= mpi {
		t.Errorf("merge switch cost must apply to TCP frames only: tcp=%v mpi=%v", tcp, mpi)
	}
}

func TestRPLifecycle(t *testing.T) {
	ctx := testCtx(t)
	p := New("rp-x", hw.BackEnd, 0, ctx, sqep.NewIota(1, 5))
	if p.ID() != "rp-x" || p.Cluster() != hw.BackEnd || p.Node() != 0 {
		t.Errorf("identity = %s/%s/%d", p.ID(), p.Cluster(), p.Node())
	}
	reg := metrics.NewRegistry()
	p.SetMetrics(reg.OpenScope("q1"))
	inbox := make(carrier.Inbox, 16)
	conn := &loopConn{inbox: inbox}
	if err := p.Subscribe(conn, SenderConfig{BufBytes: 1024, Mode: carrier.SingleBuffered}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Error("double start should fail")
	}
	if err := p.Subscribe(conn, SenderConfig{BufBytes: 1024, Mode: carrier.SingleBuffered}); err == nil {
		t.Error("subscribe after start should fail")
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["rp.elements_out.rp-x"]; got != 5 {
		t.Errorf("elements out = %d, want 5", got)
	}
	if snap.Counters["rp.frames_out.rp-x"] == 0 {
		t.Error("frames out must be counted")
	}

	r := NewReceiver(inbox, ReceiverConfig{Producers: 1})
	var n int
	for {
		_, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Errorf("received %d elements, want 5", n)
	}
}

// failingOpen is a plan that cannot be opened.
type failingOpen struct{ err error }

func (f failingOpen) Open(*sqep.Ctx) error            { return f.err }
func (failingOpen) Next() (sqep.Element, bool, error) { return sqep.Element{}, false, nil }
func (failingOpen) Close() error                      { return nil }

func TestRPPlanErrorStillTerminatesStream(t *testing.T) {
	ctx := testCtx(t)
	wantErr := errors.New("boom")
	p := New("rp-err", hw.BackEnd, 0, ctx, failingOpen{wantErr})
	inbox := make(carrier.Inbox, 4)
	conn := &loopConn{inbox: inbox}
	if err := p.Subscribe(conn, SenderConfig{BufBytes: 64, Mode: carrier.SingleBuffered}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); !errors.Is(err, wantErr) {
		t.Errorf("Wait = %v, want %v", err, wantErr)
	}
	// Downstream still sees a terminated stream, not a hang — and the
	// termination carries the failure (a Down frame), so a truncated stream
	// is not mistaken for a complete one.
	r := NewReceiver(inbox, ReceiverConfig{Producers: 1})
	if _, ok, err := r.Next(); ok || !errors.Is(err, ErrUpstreamDown) {
		t.Errorf("downstream should observe the failure: ok=%v err=%v", ok, err)
	}
}

func TestRPOperatorErrorPropagates(t *testing.T) {
	ctx := testCtx(t)
	p := New("rp-operr", hw.BackEnd, 0, ctx, sqep.NewMapFn("fail", sqep.NewIota(1, 3), func(any) (any, vtime.Duration, error) {
		return nil, 0, errors.New("map exploded")
	}))
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err == nil || !strings.Contains(err.Error(), "map exploded") {
		t.Errorf("Wait = %v, want map error", err)
	}
}

// procFunc is a func as a kernel process.
type procFunc func()

func (f procFunc) Run() { f() }

// TestReceiverCloseUnblocksSenders: a consumer that stops early must not
// deadlock its producers. The producer fills the inbox and parks on the
// consumer's credit; the consumer's Close shuts the inbox, which wakes it,
// drops every later frame as if delivered and recycles the one it held.
func TestReceiverCloseUnblocksSenders(t *testing.T) {
	var k vtime.Kernel
	prod, cons := k.Join("q1", nil), k.Join("q1", nil)
	inbox := make(carrier.Inbox, 1)
	delivered := 0
	prod.Go(procFunc(func() {
		for i := 0; i < 100; i++ {
			if vtime.Send(prod, cons, inbox, carrier.Delivered{Frame: carrier.Frame{Source: "a", Payload: []byte{marshal.TagNull}}}, 0, nil) {
				delivered++
			}
		}
	}))
	cons.Go(procFunc(func() {
		r := NewReceiver(inbox, ReceiverConfig{Producers: 1})
		if err := r.Open(&sqep.Ctx{Agent: cons}); err != nil {
			t.Error(err)
		}
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}))
	done := make(chan struct{})
	go func() {
		prod.Await()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the producer stayed parked after its consumer closed")
	}
	if delivered != 1 || len(inbox) != 0 {
		t.Errorf("%d frames delivered, %d left in the inbox; want the one that fitted, drained by Close", delivered, len(inbox))
	}
}
