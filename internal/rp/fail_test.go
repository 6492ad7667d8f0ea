package rp

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/marshal"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// blockConn is a carrier whose Send stalls forever — a peer that stopped
// draining — until Abort tears it, the shape Fail must be able to unblock.
type blockConn struct {
	abort     chan struct{}
	abortOnce sync.Once
	entered   chan struct{}
	enterOnce sync.Once
}

var (
	_ carrier.Conn         = (*blockConn)(nil)
	_ interface{ Abort() } = (*blockConn)(nil)
)

func newBlockConn() *blockConn {
	return &blockConn{abort: make(chan struct{}), entered: make(chan struct{})}
}

func (c *blockConn) Send(f carrier.Frame) (vtime.Time, error) {
	c.enterOnce.Do(func() { close(c.entered) })
	<-c.abort
	// Once Send is called the carrier owns the frame, success or failure.
	carrier.Recycle(&f)
	return 0, fmt.Errorf("blockConn: %w", carrier.ErrClosed)
}

func (c *blockConn) Close() error { return nil }

func (c *blockConn) Abort() { c.abortOnce.Do(func() { close(c.abort) }) }

func TestFailBeforeStartResolvesWait(t *testing.T) {
	cause := errors.New("node went dark")
	p := New("rp-dead", testCtx(t), sqep.NewIota(1, 5), nil)
	p.Fail(cause)
	waited := make(chan struct{})
	go func() { p.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("failing a never-started RP must resolve Wait")
	}
	if err := p.Wait(); !errors.Is(err, cause) {
		t.Fatalf("Wait = %v, want %v", err, cause)
	}
	err := p.Start()
	if err == nil {
		t.Fatal("Start after Fail must refuse")
	}
	if !errors.Is(err, cause) || !errors.Is(err, ErrFailedBeforeStart) {
		t.Fatalf("Start error = %v, want ErrFailedBeforeStart wrapping the cause", err)
	}
	p.Fail(errors.New("second cause")) // idempotent, first error wins
	if err := p.Wait(); !errors.Is(err, cause) {
		t.Fatalf("second Fail overwrote the original cause: %v", err)
	}
}

func TestFailUnblocksSenderStalledInSend(t *testing.T) {
	conn := newBlockConn()
	p := New("rp-stuck", testCtx(t), sqep.NewGenArray(256, 8), nil)
	// A tiny buffer flushes on the first element, driving the run loop into
	// the stalled Send.
	if err := p.Subscribe(conn, SenderConfig{BufBytes: 64, Mode: carrier.SingleBuffered}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	<-conn.entered // the run loop is now inside the blocked Send

	cause := errors.New("node went dark")
	p.Fail(cause)
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, cause) {
			t.Fatalf("Wait = %v, want %v", err, cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fail did not unblock an RP stalled in Send")
	}
}

// encInt returns the marshaled bytes of one int64 stream object.
func encInt(t *testing.T, v int64) []byte {
	t.Helper()
	b, err := marshal.Append(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReceiverCloseRecyclesDrainedFrames: a frame queued before a consumer
// closes its receiver early goes back to the pool by the time Close returns,
// and a Send afterwards reports false.
func TestReceiverCloseRecyclesDrainedFrames(t *testing.T) {
	var k vtime.Kernel
	cons := k.Join("q1", nil)
	inbox := make(carrier.Inbox, 4)
	r := NewReceiver(inbox, ReceiverConfig{Producers: 1})
	if err := r.Open(&sqep.Ctx{Agent: cons, Cost: &zeroCost}); err != nil {
		t.Fatal(err)
	}
	queued := carrier.GetBuf(512)
	if !vtime.Send(nil, cons, inbox, &carrier.Delivered{Frame: carrier.Frame{Source: "a", Payload: queued, Pooled: true}}, 0, nil) {
		t.Fatal("a Send to an open inbox reported false")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 0 {
		t.Fatalf("Close left %d frames in the inbox", len(inbox))
	}
	if inPool(carrier.GetBuf, carrier.PutBuf, map[*byte]int{&queued[0]: cap(queued)}) != 1 {
		t.Error("the queued frame's pooled payload is not back in the pool")
	}
	if vtime.Send(nil, cons, inbox, &carrier.Delivered{Frame: carrier.Frame{Source: "a", Last: true}}, 0, nil) || len(inbox) != 0 {
		t.Error("a Send after Close reached the inbox")
	}
}
