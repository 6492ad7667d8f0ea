package rp

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"scsq/internal/carrier"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

// genTemplate returns the array every gen_array element of floats elements
// is: the process-wide immutable template of that size.
func genTemplate(t testing.TB, floats int) []float64 {
	t.Helper()
	g := sqep.NewGenArray(8*floats, 1)
	if err := g.Open(&sqep.Ctx{}); err != nil {
		t.Fatal(err)
	}
	el, ok, err := g.Next()
	if err != nil || !ok {
		t.Fatalf("gen_array(%d,1): %t, %v", 8*floats, ok, err)
	}
	return el.Value.([]float64)
}

// sentFrame is what frameLog keeps of one frame besides its bytes.
type sentFrame struct {
	offset     uint64
	n          int
	ready      vtime.Time
	last       bool
	senderFree vtime.Time
	pooled     bool
	data       *byte // where the payload lies
}

// frameLog concatenates the payloads it is sent and keeps every frame's
// stream position, timing and storage, charging a fixed per-byte latency so
// senderFree depends on the frames.
type frameLog struct {
	stream []byte
	frames []sentFrame
	free   vtime.Time
}

func (c *frameLog) Send(f carrier.Frame) (vtime.Time, error) {
	c.free = vtime.MaxTime(f.Ready, c.free).Add(vtime.Duration(2 * len(f.Payload)))
	c.frames = append(c.frames, sentFrame{
		offset: f.Offset, n: len(f.Payload), ready: f.Ready, last: f.Last,
		senderFree: c.free, pooled: f.Pooled, data: unsafe.SliceData(f.Payload),
	})
	c.stream = append(c.stream, f.Payload...)
	carrier.Recycle(&f)
	return c.free, nil
}

func (c *frameLog) Close() error { return nil }

// tmplSpan is where one template's encoding sits in a stream.
type tmplSpan struct {
	from int
	enc  []byte
}

// inside returns the offset into s.enc of the n bytes at stream offset off,
// or -1 unless they lie wholly inside it.
func (s tmplSpan) inside(off uint64, n int) int {
	if k := int(off) - s.from; n > 0 && k >= 0 && k+n <= len(s.enc) {
		return k
	}
	return -1
}

// aliases reports whether p points into enc.
func aliases(p *byte, enc []byte) bool {
	a, lo := uintptr(unsafe.Pointer(p)), uintptr(unsafe.Pointer(unsafe.SliceData(enc)))
	return p != nil && a >= lo && a < lo+uintptr(len(enc))
}

// TestSenderBorrowsOnlyImmutableArrays: a frame that lies wholly inside a
// gen_array template's encoding borrows that window of the template,
// unpooled, and every other frame is a pooled copy — one that straddles two
// values, one of an array equal to a template but not it, and the stream's
// final frame, whose bytes the driver staged when the template's push
// returned. Borrowing changes no frame: the bytes and the (Offset, Ready,
// Last, senderFree) sequence are those of the same stream with every
// template cloned.
func TestSenderBorrowsOnlyImmutableArrays(t *testing.T) {
	type part struct {
		floats int // 0: an integer
		clone  bool
	}
	streams := [][]part{
		{{}, {4, false}, {125, false}, {}, {125, true}, {20000, false}, {}, {1250, true}, {20000, true}, {1250, false}},
		{{20000, false}, {4, false}, {4, true}, {}, {1250, false}, {}},
	}
	for _, bufBytes := range []int{7, 1000, 65536} {
		for _, perElement := range []bool{false, true} {
			for si, parts := range streams {
				// run pushes the stream, with every template cloned if
				// cloneAll, and returns the frames and where the templates
				// it pushed sit in the stream.
				run := func(cloneAll bool) (*frameLog, []tmplSpan) {
					conn := &frameLog{}
					d, err := newSenderDriver("p", conn, SenderConfig{BufBytes: bufBytes, Mode: carrier.DoubleBuffered, MarshalPerByte: 0.5, FlushPerElement: perElement})
					if err != nil {
						t.Fatal(err)
					}
					var spans []tmplSpan
					off := 0
					for i, p := range parts {
						var v any = int64(i)
						size := 9
						if p.floats > 0 {
							arr := genTemplate(t, p.floats)
							if p.clone || cloneAll {
								arr = slices.Clone(arr)
							} else {
								enc, ok := sqep.Encoding(arr)
								if !ok {
									t.Fatalf("Encoding does not know the template of %d", p.floats)
								}
								spans = append(spans, tmplSpan{off, enc})
							}
							v, size = arr, 5+8*p.floats
						}
						if err := d.push(sqep.Element{Value: v, At: vtime.Time(i * 100)}); err != nil {
							t.Fatal(err)
						}
						off += size
					}
					if err := d.finish(); err != nil {
						t.Fatal(err)
					}
					return conn, spans
				}
				got, spans := run(false)
				want, _ := run(true)
				at := func(i int) string {
					return fmt.Sprintf("stream %d, buf %d, perElement %t, frame %d", si, bufBytes, perElement, i)
				}
				if !bytes.Equal(got.stream, want.stream) || len(got.frames) != len(want.frames) {
					t.Fatalf("%s: %d frames of the stream, %d of its clone; equal bytes %t", at(0), len(got.frames), len(want.frames), bytes.Equal(got.stream, want.stream))
				}
				borrowedFrames := 0
				for i, g := range got.frames {
					w := want.frames[i]
					if g.offset != w.offset || g.n != w.n || g.ready != w.ready || g.last != w.last || g.senderFree != w.senderFree {
						t.Fatalf("%s: %+v, its clone's %+v", at(i), g, w)
					}
					if w.pooled != (w.n > 0) {
						t.Fatalf("%s of the cloned stream: %d bytes, pooled %t", at(i), w.n, w.pooled)
					}
					borrowed := false
					for _, s := range spans {
						if k := s.inside(g.offset, g.n); k >= 0 && !g.last {
							borrowed = true
							borrowedFrames++
							if g.pooled || g.data != &s.enc[k] {
								t.Fatalf("%s lies inside a template at %d but is a copy (pooled %t)", at(i), k, g.pooled)
							}
						}
					}
					for _, s := range spans {
						if !borrowed && (g.pooled != (g.n > 0) || aliases(g.data, s.enc)) {
							t.Fatalf("%s is no window of a pushed template but pooled %t, aliases one %t", at(i), g.pooled, aliases(g.data, s.enc))
						}
					}
				}
				if borrowedFrames == 0 {
					t.Errorf("%s: no frame borrowed a template", at(len(got.frames)))
				}
			}
		}
	}
}

// flipFaults corrupts byte k of the frame a link sends as its seq-th.
type flipFaults struct {
	seq uint64
	k   int
}

func (f flipFaults) OnSend(_, _ carrier.NodeRef, seq uint64, _ vtime.Time, _ int, _ bool) carrier.Verdict {
	if seq == f.seq {
		return carrier.Verdict{CorruptByte: f.k}
	}
	return carrier.Verdict{CorruptByte: -1}
}

// TestCorruptBorrowedPayloadLeavesTemplate: a link told to flip a byte of a
// frame that borrows a template flips it in a pooled copy, which the receiving
// side gets and returns once; the template, and the frames around it that
// borrow it, read as before.
func TestCorruptBorrowedPayloadLeavesTemplate(t *testing.T) {
	tmpl := genTemplate(t, 125)
	enc, ok := sqep.Encoding(tmpl)
	if !ok {
		t.Fatal("Encoding does not know the template")
	}
	const k = 100
	flipped := bytes.Clone(enc)
	flipped[k] ^= 0xff
	inbox := make(carrier.Inbox, 4)
	link := carrier.NewLink(carrier.Route{Kind: "tcp"}, inbox, flipFaults{seq: 1, k: k}, nil)
	d, err := newSenderDriver("p", link, SenderConfig{BufBytes: 1 << 20, Mode: carrier.DoubleBuffered, FlushPerElement: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.push(sqep.Element{Value: tmpl}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.finish(); err != nil {
		t.Fatal(err)
	}
	bufs := map[*byte]int{}
	for i := 0; i < 3; i++ { // the three arrays; the empty Last frame stays queued
		fr := (<-inbox).Frame
		switch data := unsafe.SliceData(fr.Payload); {
		case i != 1:
			if fr.Pooled || data != &enc[0] || len(fr.Payload) != len(enc) {
				t.Errorf("frame %d: pooled %t, %d bytes, borrowing the template %t", i, fr.Pooled, len(fr.Payload), data == &enc[0])
			}
		case !fr.Pooled || aliases(data, enc) || !bytes.Equal(fr.Payload, flipped):
			t.Fatalf("corrupted frame: pooled %t, aliases the template %t, byte %d flipped %t",
				fr.Pooled, aliases(data, enc), k, bytes.Equal(fr.Payload, flipped))
		default:
			bufs[data] = cap(fr.Payload)
		}
		carrier.Recycle(&fr)
	}
	for j, x := range tmpl {
		if x != float64(j%997) {
			t.Fatalf("the template reads %v at %d after the flip, want %d", x, j, j%997)
		}
	}
	if n := inPool(carrier.GetBuf, carrier.PutBuf, bufs); n != 1 {
		t.Errorf("the corrupted frame's buffer is in the pool %d times, want once", n)
	}
}
