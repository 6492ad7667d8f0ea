package tcpcar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/hw"
	"scsq/internal/vtime"
)

// FuzzNetFrame holds the socket carrier's frame protocol to three rules:
// writeFrame → readFrame round-trips any frame (source, ready, at, offset,
// the last/viaTCP/down flags, the down error and the payload); arbitrary
// bytes never panic the reader; and a frame cut short leases about what
// arrived, not what its length fields claim.
func FuzzNetFrame(f *testing.F) {
	f.Add("rp-bg-1", int64(42), int64(100), uint64(0), byte(2), "", []byte{1, 2, 3}, []byte(nil))
	f.Add("", int64(0), int64(7), uint64(9), byte(1), "", []byte{}, []byte{0, 0, 0, 0})
	f.Add("x", int64(-1), int64(1<<40), uint64(1<<63), byte(7), "node down", bytes.Repeat([]byte{0xab}, 10_000), []byte{0xff, 0xff, 0xff, 0x7f})
	// Header bombs: a source, a down error and a payload each claiming far
	// more than follows.
	f.Add("", int64(0), int64(0), uint64(0), byte(0), "", []byte(nil), []byte{0, 0, 1, 0, 'a'})
	f.Add("", int64(0), int64(0), uint64(0), byte(0), "", []byte(nil), bombFrame(0xffff, 0, nil))
	f.Add("", int64(0), int64(0), uint64(0), byte(0), "", []byte(nil), bombFrame(0, 1<<26, make([]byte, 100)))
	f.Fuzz(func(t *testing.T, source string, ready, at int64, offset uint64, flags byte, downErr string, payload, raw []byte) {
		source = source[:min(len(source), 1<<16)]
		want := carrier.Delivered{
			Frame: carrier.Frame{Source: source, Payload: payload, Ready: vtime.Time(ready), Offset: offset,
				Last: flags&1 != 0, Down: flags&4 != 0},
			At: vtime.Time(at), ViaTCP: flags&2 != 0,
		}
		if want.Down {
			want.DownErr = downErr[:min(len(downErr), 1<<16)]
		}
		var wire bytes.Buffer
		if err := writeFrame(&wire, want); err != nil {
			t.Fatal(err)
		}
		encoded := wire.Bytes()[:wire.Len():wire.Len()]
		got, err := readFrame(&wire)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if len(want.Payload) == 0 {
			want.Payload = nil
		} else {
			want.Pooled = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
		carrier.Recycle(&got.Frame)
		if wire.Len() != 0 {
			t.Fatalf("%d bytes left after the frame", wire.Len())
		}

		for _, in := range [][]byte{raw, encoded[:len(encoded)/2]} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := readFrame(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			if err == nil {
				carrier.Recycle(&d.Frame)
			}
			if n, limit := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(in))+32<<10; n > limit {
				t.Fatalf("reading %d bytes allocated %d B, want at most %d", len(in), n, limit)
			}
		}
	})
}

// bombFrame is a frame header whose down error claims errLen bytes (when
// non-zero) and whose payload claims payloadLen, followed by body.
func bombFrame(errLen, payloadLen uint32, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0) // empty source
	b = append(b, make([]byte, 24)...)            // ready, at, offset
	if errLen > 0 {
		b = append(b, 4) // down
		b = binary.LittleEndian.AppendUint32(b, errLen)
		return append(b, body...)
	}
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, payloadLen)
	return append(b, body...)
}

func newNetFabric(t *testing.T) *NetFabric {
	t.Helper()
	env, err := hw.NewLOFAR()
	if err != nil {
		t.Fatal(err)
	}
	nf, err := NewNetFabric(NewFabric(env))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nf.Close() })
	return nf
}

// TestNetFabricForgetsFinishedStreams: a fabric that is never closed — the
// socket carrier of an engine that is never Reset — keeps nothing of a
// finished stream: not its channel, not its two sockets.
func TestNetFabricForgetsFinishedStreams(t *testing.T) {
	nf := newNetFabric(t)
	const streams = 16
	for i := 0; i < streams; i++ {
		inbox := make(carrier.Inbox, 2)
		c, err := nf.Dial(be(i%4), bg(i), inbox)
		if err != nil {
			t.Fatal(err)
		}
		for _, last := range []bool{false, true} {
			if _, err := c.Send(carrier.Frame{Source: "p", Payload: []byte{byte(i)}, Last: last}); err != nil {
				t.Fatal(err)
			}
			if d := <-inbox; d.Last != last {
				t.Fatalf("stream %d: frame Last=%t, want %t", i, d.Last, last)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The listener lets go of its end once it has delivered the Last frame,
	// on its own goroutine.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		nf.mu.Lock()
		channels, conns := len(nf.channels), len(nf.conns)
		nf.mu.Unlock()
		if channels == 0 && conns == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d finished streams the fabric holds %d channels and %d sockets, want none", streams, channels, conns)
		}
	}
}

// TestNetFabricRefusesSecondConnectionOnAStream: a connection presenting the
// id of a stream that already has its connection is closed at once; it must
// not share the stream's inbox, nor turn off its flow control when it goes.
func TestNetFabricRefusesSecondConnectionOnAStream(t *testing.T) {
	nf := newNetFabric(t)
	inbox := make(carrier.Inbox, 1)
	c, err := nf.Dial(be(1), bg(0), inbox)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Send(carrier.Frame{Source: "p", Payload: []byte{0}}); err != nil {
		t.Fatal(err)
	}
	<-inbox // the listener has claimed the stream

	nf.mu.Lock()
	id := nf.nextChan
	nf.mu.Unlock()
	intruder, err := net.Dial("tcp", nf.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()
	if err := binary.Write(intruder, binary.LittleEndian, id); err != nil {
		t.Fatal(err)
	}
	_ = intruder.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := intruder.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("second connection on stream %d: read = %v, want EOF (closed by the listener)", id, err)
	}
	intruder.Close()

	const frames = 8
	go func() {
		for i := 1; i <= frames; i++ {
			if _, err := c.Send(carrier.Frame{Source: "p", Payload: []byte{byte(i)}, Last: i == frames}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 1; i <= frames; i++ {
		select {
		case d := <-inbox:
			if len(d.Payload) != 1 || d.Payload[0] != byte(i) || d.Last != (i == frames) {
				t.Fatalf("frame %d: payload %v last %t", i, d.Payload, d.Last)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream stalled after %d of %d frames", i-1, frames)
		}
	}
}
