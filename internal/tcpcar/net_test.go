package tcpcar

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/chaos"
	"scsq/internal/hw"
	"scsq/internal/metrics"
)

func TestFrameProtocolRoundTrip(t *testing.T) {
	frames := []carrier.Delivered{
		{
			Frame: carrier.Frame{Source: "rp-1", Payload: []byte{1, 2, 3}, Ready: 42},
			At:    100, ViaTCP: true,
		},
		{
			Frame: carrier.Frame{Source: "", Payload: []byte{}, Ready: 0, Last: true},
			At:    7,
		},
		{
			Frame: carrier.Frame{Source: "x", Payload: bytes.Repeat([]byte{0xab}, 100_000), Ready: 1},
			At:    2, ViaTCP: true,
		},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, want := range frames {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		// readFrame mints payloads from the frame-buffer pool, so the reader
		// owns them: non-empty payloads come back marked Pooled, and empty
		// ones come back nil (no buffer is drawn for zero bytes).
		if len(want.Payload) == 0 {
			want.Payload = nil
		} else {
			want.Pooled = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := readFrame(&buf); err == nil {
		t.Error("reading past the last frame should fail")
	}
}

func TestReadFrameRejectsImplausibleLengths(t *testing.T) {
	// A source length of 2^31 must be rejected, not allocated.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := readFrame(&buf); err == nil {
		t.Error("implausible source length should fail")
	}
}

func TestNetFabricEndToEnd(t *testing.T) {
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	inner := NewFabric(env)
	nf, err := NewNetFabric(inner)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()

	inbox := make(carrier.Inbox, 8)
	conn, err := nf.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 10_000)
	free, err := conn.Send(carrier.Frame{Source: "a1", Payload: payload, Ready: 0})
	if err != nil {
		t.Fatal(err)
	}
	if free <= 0 {
		t.Errorf("senderFree = %v, want > 0", free)
	}
	if _, err := conn.Send(carrier.Frame{Source: "a1", Last: true}); err != nil {
		t.Fatal(err)
	}

	got := <-inbox
	if !bytes.Equal(got.Payload, payload) {
		t.Errorf("payload corrupted over the socket: %d bytes, want %d", len(got.Payload), len(payload))
	}
	if !got.ViaTCP || got.At <= 0 {
		t.Errorf("delivered = at %v viaTCP %v", got.At, got.ViaTCP)
	}
	last := <-inbox
	if !last.Last {
		t.Error("final frame must carry Last")
	}

	// Virtual-time charging matches the in-process carrier: the io
	// forwarder was charged for the bytes.
	ion, err := env.IONodeFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if ion.Forwarder.BusyTime() == 0 {
		t.Error("real-socket mode must still charge the hardware model")
	}

	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(carrier.Frame{Source: "a1"}); err != carrier.ErrClosed {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
}

func TestNetFabricManyStreams(t *testing.T) {
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	nf, err := NewNetFabric(NewFabric(env))
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()

	const streams = 8
	inbox := make(carrier.Inbox, streams*4)
	conns := make([]*NetConn, streams)
	for i := range conns {
		conns[i], err = nf.Dial(be(i%4), bg(i), inbox)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range conns {
		if _, err := c.Send(carrier.Frame{Source: string(rune('a' + i)), Payload: []byte{byte(i)}, Last: true}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[byte]bool{}
	for i := 0; i < streams; i++ {
		d := <-inbox
		if len(d.Payload) == 1 {
			seen[d.Payload[0]] = true
		}
	}
	if len(seen) != streams {
		t.Errorf("received %d distinct streams, want %d", len(seen), streams)
	}
}

func TestNetFabricCloseIdempotent(t *testing.T) {
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	nf, err := NewNetFabric(NewFabric(env))
	if err != nil {
		t.Fatal(err)
	}
	if err := nf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nf.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNewNetFabricValidation(t *testing.T) {
	if _, err := NewNetFabric(nil); err == nil {
		t.Error("nil inner fabric should fail")
	}
}

// TestNetConnSurvivesDroppedFrame is the regression test for a wedge: a
// chaos-dropped frame is charged but never written to the socket, so the
// read side never returns its flow-control credit. Send used to block on
// that hand-off forever, holding the connection's lock (so Close blocked
// too).
func TestNetConnSurvivesDroppedFrame(t *testing.T) {
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	inner := NewFabric(env)
	inner.SetInjector(chaos.New(1, chaos.DropRate(1)))
	inner.SetMetrics(reg)
	nf, err := NewNetFabric(inner)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	inbox := make(carrier.Inbox, 1)
	conn, err := nf.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := conn.Send(carrier.Frame{Source: "a", Payload: make([]byte, 100)})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("a dropped frame is a successful send, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send of a dropped frame never returned")
	}
	if got := len(conn.credits); got != 1 {
		t.Errorf("%d flow-control credits after a dropped frame, want 1", got)
	}
	if got := reg.Snapshot().Counters["link.drops.tcp:be:1->bg:0"]; got != 1 {
		t.Errorf("link.drops = %d, want 1", got)
	}
	// The connection is still usable: Last frames are exempt from drops.
	if _, err := conn.Send(carrier.Frame{Source: "a", Last: true}); err != nil {
		t.Fatal(err)
	}
	if d := <-inbox; !d.Last {
		t.Errorf("delivered %+v, want the Last frame", d)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
}
