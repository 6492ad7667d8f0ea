package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"scsq/internal/catalog"
)

// MustBag is EncodeBag for fields known statically to encode; it panics on
// the programming error of an unencodable field.
func MustBag(fields ...any) []byte {
	b, err := EncodeBag(fields...)
	if err != nil {
		panic(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	payload := MustBag(int64(7), "select 1;", int64(0))
	r := NewReader(bytes.NewReader(AppendFrame(nil, MsgSubmit, payload)), 0)
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgSubmit || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame = %#v, want type %#x payload %x", f, MsgSubmit, payload)
	}
	fs := Fields(f.Payload, 3)
	if tag, stmt := fs.Int(), fs.Str(); tag != 7 || stmt != "select 1;" || fs.Err() != nil {
		t.Fatalf("tag = %d, stmt = %q, err %v; want 7, \"select 1;\"", tag, stmt, fs.Err())
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last frame err = %v, want io.EOF", err)
	}
}

func TestFramePipelined(t *testing.T) {
	var stream []byte
	for i := 0; i < 10; i++ {
		stream = AppendFrame(stream, MsgPing, MustBag(int64(i)))
	}
	r := NewReader(bytes.NewReader(stream), 0)
	for i := 0; i < 10; i++ {
		f, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		fs := Fields(f.Payload, 1)
		if n := fs.Int(); n != int64(i) || fs.Err() != nil {
			t.Fatalf("frame %d carries nonce %d, err %v", i, n, fs.Err())
		}
	}
}

// TestReaderFrameBuffered: FrameBuffered says whether Next can return
// without touching the stream — true for the whole frames that arrived in
// the same read, false before the first read and false for a frame whose
// length prefix or body is still in flight, however many of its bytes are
// here.
func TestReaderFrameBuffered(t *testing.T) {
	one := AppendFrame(nil, MsgPing, MustBag(int64(1)))
	for _, tail := range []int{0, 3, 4, len(one) - 1} {
		var buf bytes.Buffer
		buf.Write(one)
		buf.Write(one)
		buf.Write(one[:tail]) // the head of a frame still in flight
		r := NewReader(&buf, 0)
		if r.FrameBuffered() {
			t.Fatalf("tail %d: a frame buffered before the first read", tail)
		}
		for i, want := range []bool{true, false} {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
			if got := r.FrameBuffered(); got != want {
				t.Fatalf("tail %d: FrameBuffered after frame %d = %v, want %v", tail, i+1, got, want)
			}
		}
	}
}

func TestTruncatedFrame(t *testing.T) {
	full := AppendFrame(nil, MsgSubmit, MustBag(int64(1), "select 1;", int64(0)))
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]), 0)
		_, err := r.Next()
		if err == nil {
			t.Fatalf("cut at %d: frame decoded from a truncated stream", cut)
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<30)
	hdr[4] = MsgSubmit
	r := NewReader(bytes.NewReader(hdr[:]), 0)
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}

	// The cap is configurable; a frame over a small cap rejects even when
	// under the default.
	small := AppendFrame(nil, MsgSubmit, make([]byte, 100))
	r = NewReader(bytes.NewReader(small), 16)
	if _, err := r.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("small cap: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestEmptyFrameRejected(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0, 0, 0, 0}), 0)
	if _, err := r.Next(); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("err = %v, want ErrEmptyFrame", err)
	}
}

// TestReaderPayloadAliasesUntilNext pins the Reader's buffer contract: a
// frame's payload is the reader's own buffer, intact until the next call of
// Next and overwritten by it, so whoever keeps a payload copies it.
func TestReaderPayloadAliasesUntilNext(t *testing.T) {
	first, second := MustBag(int64(1), "first"), MustBag(int64(2), "other")
	stream := AppendFrame(AppendFrame(nil, MsgOK, first), MsgOK, second)
	r := NewReader(bytes.NewReader(stream), 0)
	f1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Payload, first) {
		t.Fatalf("first payload = %x, want %x", f1.Payload, first)
	}
	kept := bytes.Clone(f1.Payload)
	f2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f2.Payload, second) || !bytes.Equal(kept, first) {
		t.Fatalf("second payload = %x, copy of the first = %x", f2.Payload, kept)
	}
	if !bytes.Equal(f1.Payload, second) {
		t.Fatalf("the first frame's payload survived Next (%x): the reader no longer reuses its buffer, "+
			"and the per-frame allocation this contract buys is back", f1.Payload)
	}
}

// TestReaderDropsOversizedBuffer: one large frame must not pin its buffer
// for the life of an otherwise idle connection.
func TestReaderDropsOversizedBuffer(t *testing.T) {
	small := MustBag(int64(1))
	big := make([]byte, 300_000)
	stream := AppendFrame(nil, MsgRow, small)
	stream = AppendFrame(stream, MsgRow, big)
	stream = AppendFrame(stream, MsgRow, small)
	r := NewReader(bytes.NewReader(stream), 0)
	for i, want := range []int{len(small), len(big), len(small)} {
		f, err := r.Next()
		if err != nil || len(f.Payload) != want {
			t.Fatalf("frame %d: %d payload bytes, err %v; want %d", i, len(f.Payload), err, want)
		}
		if i == 1 && cap(r.buf) <= maxKeptFrame {
			t.Fatalf("large frame read into a %d-byte buffer", cap(r.buf))
		}
	}
	if cap(r.buf) > maxKeptFrame {
		t.Fatalf("reader still holds a %d-byte buffer after a small frame, want at most %d", cap(r.buf), maxKeptFrame)
	}
}

func TestDecodeBagRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,                             // empty payload
		{0xff, 0x01, 0x02},              // unknown marshal tag
		MustBag(int64(1))[:2],           // truncated bag
		append(MustBag(int64(1)), 0x99), // trailing bytes
	}
	for i, p := range cases {
		if _, err := DecodeBag(p, 1); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("case %d: err = %v, want ErrBadPayload", i, err)
		}
	}
	// A scalar payload is well-formed marshal but not a bag.
	scalar := []byte{2, 1, 0, 0, 0, 0, 0, 0, 0} // TagInt 1
	if _, err := DecodeBag(scalar, 1); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("scalar payload: err = %v, want ErrBadPayload", err)
	}
	// Fewer fields than the message requires.
	if _, err := DecodeBag(MustBag(int64(1)), 2); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short bag: err = %v, want ErrBadPayload", err)
	}
}

// TestFieldAccessors: a Cursor reads fields in order; a field of another
// type, or one past the last, reads as zero and fails the Cursor, whose
// first failure sticks. Err steps over what was not read and checks it.
func TestFieldAccessors(t *testing.T) {
	p := MustBag(int64(42), "hi")
	fs := Fields(p, 2)
	if n, s := fs.Int(), fs.Str(); n != 42 || s != "hi" || fs.Err() != nil {
		t.Fatalf("read %d, %q, %v", n, s, fs.Err())
	}
	if n := fs.Int(); n != 0 || !errors.Is(fs.Err(), ErrBadPayload) {
		t.Fatalf("a read past the last field: %d, %v", n, fs.Err())
	}
	fs = Fields(p, 2)
	if s, hi := fs.Str(), fs.Str(); s != "" || hi != "hi" || !errors.Is(fs.Err(), ErrBadPayload) {
		t.Fatalf("Str on an int field, then on a string: %q, %q, %v", s, hi, fs.Err())
	}
	if first := fs.Err(); !strings.Contains(first.Error(), "field 0") || fs.Err() != first {
		t.Fatalf("the first failure did not stick: %v", first)
	}
	fs = Fields(p, 2)
	if n, zero := fs.Int(), fs.Int(); n != 42 || zero != 0 || !errors.Is(fs.Err(), ErrBadPayload) {
		t.Fatalf("Int on a string field: %v", fs.Err())
	}
	malformed := MustBag(int64(42), "hi", int64(1))
	malformed[len(malformed)-9] = 0xff // the third field's tag
	for name, p := range map[string][]byte{
		"short":     MustBag(int64(42), "hi"),
		"malformed": malformed,
		"trailing":  append(MustBag(int64(42), "hi", 2.5), 0),
		"not a bag": MustBag(int64(42))[5:],
	} {
		fs := Fields(p, 3)
		if n := fs.Int(); n != 42 && name != "not a bag" || !errors.Is(fs.Err(), ErrBadPayload) {
			t.Fatalf("%s payload: read %d, err %v", name, n, fs.Err())
		}
	}
}

func TestWireValue(t *testing.T) {
	tup := catalog.Tuple{
		Schema: catalog.Schema{{Name: "id"}, {Name: "n"}},
		Vals:   []any{"q1", 3},
	}
	got := WireValue([]any{tup, int64(1), 2.5, []float64{1, 2}, nil, true, int(9)})
	bag, ok := got.([]any)
	if !ok || len(bag) != 7 {
		t.Fatalf("WireValue = %#v", got)
	}
	row, ok := bag[0].([]any)
	if !ok || row[0] != "q1" || row[1] != int64(3) {
		t.Fatalf("tuple lowered to %#v", bag[0])
	}
	if bag[6] != int64(9) {
		t.Fatalf("int lowered to %#v", bag[6])
	}
	// The result of WireValue always marshals.
	if _, err := EncodeBag(got); err != nil {
		t.Fatalf("lowered value does not marshal: %v", err)
	}
	// Unknown types degrade to strings rather than failing.
	if s := WireValue(struct{ X int }{1}); s != "{1}" {
		t.Fatalf("struct lowered to %#v", s)
	}
}

// fuzzSeedFrames is the seed corpus the frame and row fuzz targets share.
func fuzzSeedFrames() [][]byte {
	return [][]byte{
		AppendFrame(nil, MsgHello, MustBag(int64(ProtoVersion), "")),
		AppendFrame(nil, MsgRow, MustBag(int64(0), int64(123), "q1/client", []any{1.5})),
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 0x01},
	}
}

// FuzzFrameRoundTrip feeds arbitrary bytes through the frame reader: it
// must never panic, and whenever it decodes a frame, re-encoding must
// reproduce the consumed bytes exactly.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), 1<<16)
		off := 0
		for {
			fr, err := r.Next()
			if err != nil {
				return
			}
			enc := AppendFrame(nil, fr.Type, fr.Payload)
			if !bytes.Equal(enc, data[off:off+len(enc)]) {
				t.Fatalf("re-encoding differs at offset %d", off)
			}
			off += len(enc)
			// Payloads that decode as bags must re-encode identically too.
			if fields, err := DecodeBag(fr.Payload, 0); err == nil {
				if enc2, err := EncodeBag(fields...); err == nil && !bytes.Equal(enc2, fr.Payload) {
					t.Fatalf("bag round-trip differs: %x != %x", enc2, fr.Payload)
				}
			}
		}
	})
}
