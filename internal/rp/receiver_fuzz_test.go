package rp

import (
	"math"
	"testing"
	"time"

	"scsq/internal/carrier"
	"scsq/internal/marshal"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// FuzzReceiverUnreadMatchesMaterializing: a receiver decodes untrusted frame
// bytes. Whatever values 1–3 producers send (arrays, strings, scalars, nulls,
// nested bags, raw garbage), however their streams are cut into frames,
// interleaved and replayed, count() over a receiver it told it reads no value
// must read what count() over a materializing one reads — the same count and
// final timestamp, or an error on both. Neither panics, and every pooled
// payload and reassembly buffer goes back to its pool exactly once.
//
// prog drives the values: its first byte picks the producer count, then each
// pair of bytes is one value (kind, argument). cuts drives the frames: each
// byte in turn sizes a frame, picks whose frame is delivered next and, with
// its top bit, delivers that frame twice.
func FuzzReceiverUnreadMatchesMaterializing(f *testing.F) {
	f.Add([]byte{1, 0, 30, 1, 9, 2, 7, 6, 3}, []byte{40, 7, 130, 22})
	f.Add([]byte{2, 0, 39, 0x40, 39, 0x80, 5, 0x46, 2, 3, 1}, []byte{5, 17, 1, 200, 33, 4})
	f.Add([]byte{0, 3, 1, 4, 1, 5, 0, 2, 9, 0, 12}, []byte{2, 3})
	// One-byte frames: every scalar is split after its tag.
	f.Add([]byte{0, 4, 1, 2, 7, 3, 5}, []byte{0})
	// A header bomb, then a stream cut inside the array it announces.
	f.Add([]byte{0, 7, marshal.TagArray, 7, 0xff, 7, 0xff, 7, 0xff, 7, 0xff, 0, 3}, []byte{3, 1, 6})
	// An unknown tag after a split value.
	f.Add([]byte{1, 0, 20, 7, 0xff, 2, 1}, []byte{9, 9, 9})

	f.Fuzz(func(t *testing.T, prog, cuts []byte) {
		if len(prog) == 0 || len(cuts) == 0 {
			return
		}
		streams := fuzzStreams(t, prog)
		frames := fuzzFrames(streams, cuts)
		batch := 1 + 15*int(cuts[0]&1)
		owned, ownedErr := fuzzCount(t, frames, len(streams), batch, sqep.Owned)
		unread, unreadErr := fuzzCount(t, frames, len(streams), batch, sqep.Unread)
		if (ownedErr == nil) != (unreadErr == nil) || (ownedErr == nil && owned != unread) {
			t.Fatalf("count over an unread receiver = %+v, %v; over a materializing one %+v, %v", unread, unreadErr, owned, ownedErr)
		}
	})
}

// fuzzStreams encodes the values prog describes into 1–3 producers' byte
// streams.
func fuzzStreams(t *testing.T, prog []byte) [][]byte {
	streams := make([][]byte, 1+int(prog[0])%3)
	for i := 1; i+1 < len(prog); i += 2 {
		kind, arg := prog[i], prog[i+1]
		p := &streams[int(kind>>6)%len(streams)]
		var v any
		switch kind & 7 {
		case 0:
			arr := make([]float64, arg%40)
			for j := range arr {
				arr[j] = float64(j) * math.Pi
			}
			v = arr
		case 1:
			v = string(make([]byte, arg%50))
		case 2:
			v = int64(arg)
		case 3:
			v = float64(arg) / 3
		case 4:
			v = arg&1 == 1
		case 5:
			v = nil
		case 6:
			v = []any{int64(arg), "bag", make([]float64, arg%5), []any{nil, arg&1 == 0}}
		case 7:
			*p = append(*p, arg) // a raw byte: part of a value, or garbage
			continue
		}
		var err error
		if *p, err = marshal.Append(*p, v); err != nil {
			t.Fatal(err)
		}
	}
	return streams
}

// fuzzFrame is one frame of a fuzzed stream.
type fuzzFrame struct {
	src     string
	off     uint64
	payload []byte
	last    bool
}

// fuzzFrames cuts each stream into frames of 1–48 bytes, the last one Last
// (an empty Last frame for an empty stream), and interleaves them as cuts
// says, replaying some. It stops at 20 deliveries: the pool keeps at most 32
// free buffers a class, and the accounting must find every one it returned.
func fuzzFrames(streams [][]byte, cuts []byte) []fuzzFrame {
	k := 0
	next := func() byte { k++; return cuts[(k-1)%len(cuts)] }
	var perSrc [][]fuzzFrame
	for p, s := range streams {
		src := string(rune('a' + p))
		var own []fuzzFrame
		off := 0
		for {
			n := min(1+int(next())%48, len(s)-off)
			own = append(own, fuzzFrame{src: src, off: uint64(off), payload: s[off : off+n], last: off+n == len(s)})
			if off += n; off == len(s) {
				break
			}
		}
		perSrc = append(perSrc, own)
	}
	var out []fuzzFrame
	for len(perSrc) > 0 && len(out) < 20 {
		c := next()
		i := int(c) % len(perSrc)
		out = append(out, perSrc[i][0])
		if c&0x80 != 0 {
			out = append(out, perSrc[i][0])
		}
		if perSrc[i] = perSrc[i][1:]; len(perSrc[i]) == 0 {
			perSrc = append(perSrc[:i], perSrc[i+1:]...)
		}
	}
	return out
}

// leaseProbe passes a receiver's elements through and notes every
// reassembly buffer the receiver holds after each one: what it holds is what
// it must give back. It passes UseValues on, so count's Unread reaches the
// receiver; hiding it behind a bare sqep.Operator keeps the receiver Owned.
type leaseProbe struct {
	*Receiver
	leases map[*byte]int
}

func (p *leaseProbe) Next() (sqep.Element, bool, error) {
	el, ok, err := p.Receiver.Next()
	for _, b := range p.Receiver.bufs {
		p.leases[&b[:1][0]] = cap(b)
	}
	return el, ok, err
}

// fuzzCount delivers frames — each a pooled payload of its own, the inbox
// closed behind them — to a receiver that count() drains, and checks that
// every payload and lease is back in the pool once the receiver is closed.
func fuzzCount(t *testing.T, frames []fuzzFrame, producers, batch int, use sqep.ValueUse) (sqep.Element, error) {
	bufs := map[*byte]int{}
	inbox := make(carrier.Inbox, len(frames))
	for i, f := range frames {
		fr := carrier.Frame{Source: f.src, Offset: f.off, Last: f.last}
		if len(f.payload) > 0 {
			fr.Payload, fr.Pooled = carrier.GetBuf(len(f.payload)), true
			copy(fr.Payload, f.payload)
			bufs[&fr.Payload[0]] = cap(fr.Payload)
		}
		inbox <- carrier.Delivered{Frame: fr, At: vtime.Time(10 * (i + 1))}
	}
	close(inbox)
	r := NewReceiver(inbox, ReceiverConfig{Producers: producers, TCPPerByte: 0.5, TrackOffsets: true, BatchFrames: batch})
	probe := &leaseProbe{Receiver: r, leases: bufs}
	var in sqep.Operator = probe
	if use == sqep.Owned {
		in = struct{ sqep.Operator }{probe}
	}
	c := sqep.NewCount(in)
	if err := c.Open(&sqep.Ctx{}); err != nil {
		t.Fatal(err)
	}
	if r.unread != (use == sqep.Unread) {
		t.Fatalf("use=%d: the receiver reads values as unread=%t", use, r.unread)
	}
	el, _, err := c.Next()
	if cerr := c.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	// Frames the receiver never pulled are the Close drain's, or this test's
	// once the stream ended: each is pulled by one of the two.
	for fr := range inbox {
		carrier.Recycle(&fr.Frame)
	}
	n := inPool(carrier.GetBuf, carrier.PutBuf, bufs)
	for deadline := time.Now().Add(5 * time.Second); n != len(bufs) && time.Now().Before(deadline); n = inPool(carrier.GetBuf, carrier.PutBuf, bufs) {
		time.Sleep(time.Millisecond)
	}
	if n != len(bufs) {
		t.Fatalf("use=%d: %d of %d payloads and reassembly buffers are back in the pool", use, n, len(bufs))
	}
	return el, err
}
