package rp

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"scsq/internal/carrier"
	"scsq/internal/sqep"
	"scsq/internal/vtime"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sender_frames.golden from the current sender driver")

// recConn records every frame the sender driver hands it — one line per
// Send — and charges a fixed per-byte latency so Ready depends on the
// buffering discipline.
type recConn struct {
	perByte vtime.Duration
	free    vtime.Time
	log     bytes.Buffer
}

func (c *recConn) Send(f carrier.Frame) (vtime.Time, error) {
	h := fnv.New64a()
	_, _ = h.Write(f.Payload)
	n := len(f.Payload)
	fmt.Fprintf(&c.log, "len=%d last=%t ready=%d fnv=%016x\n", n, f.Last, f.Ready, h.Sum64())
	carrier.Recycle(&f) // the carrier owns the frame
	at := max(f.Ready, c.free).Add(vtime.Duration(n) * c.perByte)
	c.free = at
	return at, nil
}

func (c *recConn) Close() error { return nil }

// goldenBuf is the send-buffer size of the frame-sequence cases: a 16-float
// array marshals to exactly one buffer.
const goldenBuf = 133

func goldenArray(floats, seed int) []float64 {
	arr := make([]float64, floats)
	for i := range arr {
		arr[i] = float64(seed*1000+i) / 8
	}
	return arr
}

// goldenStreams are the element sequences of TestSenderFrameSequence, by
// element size relative to the send buffer.
func goldenStreams() []struct {
	name  string
	elems []any
} {
	repeat := func(n, floats int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = goldenArray(floats, i)
		}
		return out
	}
	return []struct {
		name  string
		elems []any
	}{
		{"small", repeat(9, 4)},  // 37 B < buf
		{"exact", repeat(4, 16)}, // 133 B = buf
		{"mid", repeat(5, 41)},   // 333 B ≈ 2.5 × buf
		{"huge", []any{goldenArray(4987, 1), goldenArray(4, 2), goldenArray(4987, 3)}}, // 39 901 B ≈ 300 × buf
		{"mixed", []any{
			goldenArray(4, 1), "a string of some length", goldenArray(41, 2), int64(-7),
			goldenArray(16, 3), []any{int64(1), goldenArray(4, 4), nil, true}, 2.5, goldenArray(4, 5),
		}},
	}
}

// TestSenderFrameSequence pins the exact frames the sender driver emits —
// boundaries, offsets, Ready instants and payload bytes — to listings
// captured from the driver that slid pending to the front on every flush, so
// the read cursor cannot change a frame.
func TestSenderFrameSequence(t *testing.T) {
	var got bytes.Buffer
	for _, s := range goldenStreams() {
		for _, perElement := range []bool{false, true} {
			fmt.Fprintf(&got, "# %s perElement=%t\n", s.name, perElement)
			conn := &recConn{perByte: 2}
			d, err := newSenderDriver("q1.rp1", conn, SenderConfig{
				BufBytes: goldenBuf, Mode: carrier.SingleBuffered, MarshalPerByte: 0.5,
				FlushPerElement: perElement,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range s.elems {
				if err := d.push(sqep.Element{Value: v, At: vtime.Time(i * 100)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.finish(); err != nil {
				t.Fatal(err)
			}
			got.Write(conn.log.Bytes())
		}
	}
	const path = "testdata/sender_frames.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, want %d", len(gl), len(wl))
}

// TestSenderStagesOnlyTheTail: an array's bytes go from the element into the
// frames; pending only ever holds the end of one that did not fill a buffer —
// nothing at all when every element is its own frame — and the driver lets go
// of the element when push returns.
func TestSenderStagesOnlyTheTail(t *testing.T) {
	for _, perElement := range []bool{false, true} {
		d, err := newSenderDriver("p", discardConn{}, SenderConfig{BufBytes: 1000, Mode: carrier.DoubleBuffered, FlushPerElement: perElement})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := d.push(sqep.Element{Value: goldenArray(37500, i)}); err != nil {
				t.Fatal(err)
			}
			if d.arr != nil {
				t.Fatalf("perElement=%t: the driver still holds the array after push", perElement)
			}
		}
		if perElement && d.pending != nil {
			t.Errorf("whole-element frames staged %d bytes (cap %d) in pending, want none ever", len(d.pending), cap(d.pending))
		}
		if cap(d.pending) >= 2000 {
			t.Errorf("perElement=%t: pending grew to %d bytes for 1 000-byte buffers", perElement, cap(d.pending))
		}
		if err := d.finish(); err != nil {
			t.Fatal(err)
		}
		if want := int64(3 * (5 + 8*37500)); d.bytesOut != want {
			t.Errorf("perElement=%t: %d bytes flushed, want %d", perElement, d.bytesOut, want)
		}
	}
}
