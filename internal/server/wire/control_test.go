package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"scsq/internal/marshal"
	"scsq/internal/race"
)

// controlShapes are the field types of every control message, in order: 'i'
// an int, 's' a string. Trailing fields beyond them are allowed and skipped.
var controlShapes = map[byte]string{
	MsgHello:     "is",
	MsgSubmit:    "isi",
	MsgCancel:    "is",
	MsgPing:      "i",
	MsgGoodbye:   "",
	MsgAccepted:  "iss",
	MsgDone:      "issii",
	MsgError:     "is",
	MsgPong:      "i",
	MsgOK:        "i",
	MsgDraining:  "i",
	MsgSubmitted: "is",
}

// refDecodeControl is the generic path the typed one replaced: DecodeBag and
// a type check of every field of the shape.
func refDecodeControl(p []byte, shape string) ([]any, error) {
	fields, err := DecodeBag(p, len(shape))
	if err != nil {
		return nil, err
	}
	for i, k := range []byte(shape) {
		var ok bool
		if k == 'i' {
			_, ok = fields[i].(int64)
		} else {
			_, ok = fields[i].(string)
		}
		if !ok {
			return nil, fmt.Errorf("%w: field %d is %T", ErrBadPayload, i, fields[i])
		}
	}
	return fields[:len(shape)], nil
}

// decodeControl reads a payload of the given shape through a Cursor.
func decodeControl(p []byte, shape string) ([]any, error) {
	fs := Fields(p, len(shape))
	fields := []any{}
	for _, k := range []byte(shape) {
		if k == 'i' {
			fields = append(fields, fs.Int())
		} else {
			fields = append(fields, fs.Intern([]string{"done", "q1"}))
		}
	}
	if err := fs.Err(); err != nil {
		return nil, err
	}
	return fields, nil
}

// encodeControl writes fields, of the given shape, through an Encoder.
func encodeControl(buf []byte, typ byte, shape string, fields []any) []byte {
	e := Begin(buf, typ)
	for i, k := range []byte(shape) {
		if k == 'i' {
			e.Int(fields[i].(int64))
		} else {
			e.Str(fields[i].(string))
		}
	}
	return e.End()
}

// controlSample returns fields of the given shape: tags above 255, negative
// and large integers, empty, multi-byte and known strings.
func controlSample(shape string, seed int) []any {
	ints := []int64{-1, 0, 256, 1 << 40, -(1 << 62)}
	strs := []string{"", "select i from integer i where i in iota(1,3);", "done", "q1", "ü/世界"}
	fields := []any{}
	for i, k := range []byte(shape) {
		if k == 'i' {
			fields = append(fields, ints[(seed+i)%len(ints)])
		} else {
			fields = append(fields, strs[(seed+i)%len(strs)])
		}
	}
	return fields
}

// TestEncoderMatchesMustBag: every control message written through an
// Encoder is the frame AppendFrame(typ, MustBag(fields...)) builds, byte for
// byte, and appending leaves the frames before it alone. The Cursor reads
// the fields back.
func TestEncoderMatchesMustBag(t *testing.T) {
	prefix := AppendFrame(nil, MsgPing, MustBag(int64(3)))
	for typ, shape := range controlShapes {
		for seed := 0; seed < 5; seed++ {
			fields := controlSample(shape, seed)
			want := AppendFrame(nil, typ, MustBag(fields...))
			if got := encodeControl(nil, typ, shape, fields); !bytes.Equal(got, want) {
				t.Fatalf("%#x %v: Encoder wrote\n %x\nwant %x", typ, fields, got, want)
			}
			got := encodeControl(bytes.Clone(prefix), typ, shape, fields)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%#x %v: Encoder onto a non-empty buffer wrote %x", typ, fields, got)
			}
			read, err := decodeControl(want[5:], shape)
			if err != nil || !reflect.DeepEqual(read, fields[:len(shape)]) {
				t.Fatalf("%#x: read back %v, %v; want %v", typ, read, err, fields)
			}
		}
	}
}

// controlCases are payloads around one shape: exact, with trailing fields,
// short, with each field mistyped, with trailing bytes, truncated, and a bag
// whose count runs past its fields.
func controlCases(shape string) [][]byte {
	fields := controlSample(shape, 1)
	exact := MustBag(fields...)
	cases := [][]byte{
		exact,
		MustBag(append(fields, "trailing", []any{nil, 2.5})...),
		append(bytes.Clone(exact), 0x99),
		exact[:len(exact)-1],
		{marshal.TagBag, 0xff, 0xff, 0xff, 0xff, marshal.TagNull},
		{marshal.TagInt, 1, 0, 0, 0, 0, 0, 0, 0},
		nil,
	}
	if len(fields) > 0 {
		cases = append(cases, MustBag(fields[:len(fields)-1]...))
	}
	for i := range fields {
		mistyped := append([]any(nil), fields...)
		mistyped[i] = []any{fields[i]}
		cases = append(cases, MustBag(mistyped...))
	}
	return cases
}

// FuzzDecodeControl is the differential test of the Cursor against the
// generic path: on every input, for every control message shape, the same
// verdict and, when accepted, the same fields. Its seeds — every shape's
// controlCases — run with every go test.
func FuzzDecodeControl(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
		if len(frame) > 5 {
			f.Add(frame[5:]) // the payload alone, as a peer reads it
		}
	}
	for _, shape := range controlShapes {
		for _, p := range controlCases(shape) {
			f.Add(p)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for typ, shape := range controlShapes {
			got, err := decodeControl(data, shape) // must not panic
			ref, refErr := refDecodeControl(data, shape)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%#x: Cursor err = %v, reference err = %v", typ, err, refErr)
			}
			if err != nil {
				if !errors.Is(err, ErrBadPayload) {
					t.Fatalf("%#x: rejection %v is not ErrBadPayload", typ, err)
				}
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%#x: Cursor read %v, reference %v", typ, got, ref)
			}
		}
	})
}

// TestControlCodecAllocations: a control frame written into a warm buffer,
// and one read whose strings are known or empty, allocate nothing.
func TestControlCodecAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	known := []string{"done", "cancelled", "failed"}
	var buf []byte
	done := func() {
		e := Begin(buf[:0], MsgDone)
		e.Int(300)
		e.Str("done")
		e.Str("")
		e.Int(123_456)
		e.Int(2000)
		buf = e.End()
	}
	done()
	if n := testing.AllocsPerRun(100, done); n != 0 {
		t.Errorf("a Done frame into a warm buffer: %v allocs, want 0", n)
	}
	payload := bytes.Clone(buf[5:])
	if n := testing.AllocsPerRun(100, func() {
		fs := Fields(payload, 5)
		if fs.Int() != 300 || fs.Intern(known) != "done" || fs.Str() != "" || fs.Int() != 123_456 || fs.Int() != 2000 || fs.Err() != nil {
			t.Fatal("misread the Done frame")
		}
	}); n != 0 {
		t.Errorf("reading a Done frame: %v allocs, want 0", n)
	}
}
