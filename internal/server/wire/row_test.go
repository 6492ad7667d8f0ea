package wire

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"scsq/internal/catalog"
	"scsq/internal/marshal"
	"scsq/internal/race"
)

// refRow is the row encoding the protocol was defined by: lower the value,
// marshal the positional bag, frame it. AppendRow must reproduce it byte
// for byte.
func refRow(tag, atNs int64, src string, v any) ([]byte, error) {
	payload, err := EncodeBag(tag, atNs, src, WireValue(v))
	if err != nil {
		return nil, err
	}
	return AppendFrame(nil, MsgRow, payload), nil
}

// refDecodeRow is what the client's row dispatch did before RowDecoder: the
// generic bag decode plus its field accessors.
func refDecodeRow(p []byte) (Row, error) {
	fields, err := DecodeBag(p, 4)
	if err != nil {
		return Row{}, err
	}
	tag, err := Int(fields, 0)
	if err != nil {
		return Row{}, err
	}
	atNs, _ := Int(fields, 1)
	src, _ := Str(fields, 2)
	return Row{Tag: tag, AtNs: atNs, Source: src, Value: fields[3]}, nil
}

func bigArray() []float64 {
	arr := make([]float64, 300_000/8)
	for i := range arr {
		arr[i] = float64(i) / 3
	}
	return arr
}

func TestAppendRowMatchesReferenceEncoding(t *testing.T) {
	tup := catalog.Tuple{
		Schema: catalog.Schema{{Name: "id"}, {Name: "n"}, {Name: "sub"}},
		Vals:   []any{"q1", 3, catalog.Tuple{Vals: []any{int64(1), nil}}},
	}
	values := map[string]any{
		"nil":          nil,
		"bool":         true,
		"int64":        int64(-42),
		"int":          7,
		"float64":      math.Inf(-1),
		"string":       "hello, 世界",
		"empty string": "",
		"array":        bigArray(),
		"empty array":  []float64{},
		"bag":          []any{int64(1), "x", []any{nil, false, []float64{2}}, 2.5},
		"tuple":        tup,
		"tuple in bag": []any{tup, tup},
		"stringified":  struct{ X int }{1},
		"stringified in bag": []any{
			map[string]int{"a": 1}, errors.New("boom"),
		},
	}
	prefix := []byte("earlier frames")
	var dec RowDecoder
	for name, v := range values {
		for _, src := range []string{"", "q1/client"} {
			want, err := refRow(9, 123_456_789, src, v)
			if err != nil {
				t.Fatalf("%s: reference encoding: %v", name, err)
			}
			got, err := AppendRow(nil, 9, 123_456_789, src, v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (src %q): AppendRow differs from the reference\n got %x\nwant %x", name, src, clip(got), clip(want))
			}
			// Appending after earlier frames leaves them alone.
			got, err = AppendRow(append([]byte(nil), prefix...), 9, 123_456_789, src, v)
			if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s: AppendRow onto a non-empty buffer: err %v", name, err)
			}
			// And the typed decoder reads back what the generic one does.
			row, err := dec.DecodeRow(got[len(prefix)+5:])
			if err != nil {
				t.Fatalf("%s: DecodeRow: %v", name, err)
			}
			ref, err := refDecodeRow(want[5:])
			if err != nil {
				t.Fatalf("%s: reference decode: %v", name, err)
			}
			if !sameRow(row, ref) {
				t.Fatalf("%s: DecodeRow = %+v, reference %+v", name, row, ref)
			}
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 64 {
		return b[:64]
	}
	return b
}

// sameRow compares rows through their encoding, which is NaN-safe.
func sameRow(a, b Row) bool {
	ea, erra := EncodeBag(a.Tag, a.AtNs, a.Source, a.Value)
	eb, errb := EncodeBag(b.Tag, b.AtNs, b.Source, b.Value)
	return erra == nil && errb == nil && bytes.Equal(ea, eb)
}

func TestDecodeRowVerdicts(t *testing.T) {
	row := MustBag(int64(7), int64(5), "src", int64(1))
	accept := map[string][]byte{
		"exact":             row,
		"trailing fields":   MustBag(int64(7), int64(5), "src", int64(1), "extra", []any{nil}),
		"at of wrong type":  MustBag(int64(7), "late", "src", int64(1)),
		"src of wrong type": MustBag(int64(7), int64(5), 2.5, int64(1)),
	}
	var dec RowDecoder
	for name, p := range accept {
		got, err := dec.DecodeRow(p)
		ref, refErr := refDecodeRow(p)
		if err != nil || refErr != nil || !sameRow(got, ref) {
			t.Errorf("%s: DecodeRow = %+v, %v; reference %+v, %v", name, got, err, ref, refErr)
		}
	}
	if got, _ := dec.DecodeRow(accept["at of wrong type"]); got.AtNs != 0 || got.Source != "src" {
		t.Errorf("mistyped at_ns decoded as %+v, want zero at_ns and the source kept", got)
	}
	reject := map[string][]byte{
		"empty":               nil,
		"scalar":              {marshal.TagInt, 1, 0, 0, 0, 0, 0, 0, 0},
		"three fields":        MustBag(int64(7), int64(5), "src"),
		"tag not an int":      MustBag("7", int64(5), "src", int64(1)),
		"trailing bytes":      append(append([]byte(nil), row...), 0x99),
		"truncated value":     row[:len(row)-1],
		"bad trailing field":  MustBag(int64(7), int64(5), "src", int64(1), nil),
		"count beyond fields": {marshal.TagBag, 0xff, 0xff, 0xff, 0xff, marshal.TagNull},
	}
	bad := reject["bad trailing field"]
	bad[len(bad)-1] = 0xff // the fifth field's tag: ignored, but still checked
	for name, p := range reject {
		_, err := dec.DecodeRow(p)
		_, refErr := refDecodeRow(p)
		if !errors.Is(err, ErrBadPayload) || refErr == nil {
			t.Errorf("%s: DecodeRow err = %v (reference %v), want ErrBadPayload from both", name, err, refErr)
		}
	}
}

// FuzzDecodeRow is the differential test of the typed row decoder against
// the generic path it replaced: on every input the same verdict and, when
// accepted, the same four fields. One decoder reads every input twice, so a
// row follows both a row of its own source and one of another.
func FuzzDecodeRow(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
		if len(frame) > 5 {
			f.Add(frame[5:]) // the payload alone, as the client sees it
		}
	}
	f.Add(MustBag(int64(1), int64(2), "s", []float64{1, 2}, "trailing", []any{nil}))
	f.Add(MustBag("not an int", int64(2), "s", nil))
	f.Add(MustBag(int64(1), nil, false, []any{[]any{int64(3)}}))
	var dec RowDecoder
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := refDecodeRow(data)
		for pass := 0; pass < 2; pass++ {
			got, err := dec.DecodeRow(data) // must not panic
			if (err == nil) != (refErr == nil) {
				t.Fatalf("pass %d: DecodeRow err = %v, reference err = %v", pass, err, refErr)
			}
			if err != nil {
				if !errors.Is(err, ErrBadPayload) {
					t.Fatalf("rejection %v is not ErrBadPayload", err)
				}
				continue
			}
			if !sameRow(got, ref) || got.Source != ref.Source {
				t.Fatalf("pass %d: DecodeRow = %+v, reference %+v", pass, got, ref)
			}
		}
	})
}

func TestRowCodecAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var value any = int64(123_456)
	buf, err := AppendRow(nil, 7, 1, "", value)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = AppendRow(buf[:0], 7, 1, "", value)
	}); n != 0 {
		t.Errorf("AppendRow of an integer row into a warm buffer: %v allocs, want 0", n)
	}

	var stream []byte
	for i := 0; i < 200; i++ {
		stream, _ = AppendRow(stream, 7, int64(i), "", value)
	}
	src := bytes.NewReader(stream)
	r := NewReader(src, 0)
	if _, err := r.Next(); err != nil { // warm: the frame buffer exists
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reader.Next: %v allocs per frame, want 0", n)
	}

	// Rows of one source through a warm decoder: the source is the last
	// row's string, and the value takes a word of a slab shared by 256.
	buf, _ = AppendRow(buf[:0], 7, 1, "q1/a", value)
	payload := buf[5:]
	var dec RowDecoder
	if _, err := dec.DecodeRow(payload); err != nil {
		t.Fatal(err)
	}
	const rows = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		if _, err := dec.DecodeRow(payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := float64(after.Mallocs-before.Mallocs) / rows; n > 1.0/64 {
		t.Errorf("DecodeRow of an integer row through a warm decoder: %v allocs per row, want at most 1/64", n)
	}
}
