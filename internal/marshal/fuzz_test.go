package marshal

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecodeRoundTrip asserts two properties over arbitrary input bytes:
// Decode must never panic (crafted length prefixes, unknown tags, truncated
// payloads), and any value it does produce must re-encode and decode to the
// same value. Skip must agree with Decode on every input (same accept/reject,
// same bytes consumed), and so must Loan.Decode, whose result additionally
// never shares memory with the input, and whose array lives in the loan's:
// one that is too short is replaced, a longer one keeps its capacity. A decoded
// array is also cut into windows by CopyArray, each of which must be the
// bytes AppendArray puts at that offset. Decode through one Boxes kept
// across inputs returns the same value, length and error as Decode.
func FuzzDecodeRoundTrip(f *testing.F) {
	seedValues := []any{
		nil, int64(-1), 3.14, true, "hello, 世界",
		[]float64{1.5, math.Inf(-1), math.NaN()},
		[]any{int64(7), "x", []float64{2}, []any{nil, false}},
	}
	for _, v := range seedValues {
		enc, err := Append(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Adversarial seeds: giant length prefixes, unknown tag, empty input.
	f.Add([]byte{TagBag, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{TagArray, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3})
	f.Add([]byte{TagString, 0x10, 0x00, 0x00, 0x00, 'a'})
	f.Add([]byte{0xff})
	f.Add([]byte{})

	var boxes Boxes
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := Decode(data) // must not panic
		checkBoxedDecode(t, &boxes, data, v, n, err)
		for _, have := range []int{0, 1, 4096} {
			checkLoanDecode(t, data, have, v, n, err)
		}
		if ns, errs := Skip(data); (err == nil) != (errs == nil) || ns != n {
			t.Fatalf("Decode = (%d, %v) but Skip = (%d, %v)", n, err, ns, errs)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		// NaN-safe comparison via the encoded bytes.
		enc, err := Append(nil, v)
		if err != nil {
			t.Fatalf("re-encode of decoded value %v: %v", v, err)
		}
		v2, n2, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded value: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-encoded value decodes %d of %d bytes", n2, len(enc))
		}
		enc2, err := Append(nil, v2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not stable: %x vs %x", enc, enc2)
		}
		if arr, ok := v.([]float64); ok {
			// The input's own bytes choose the windows.
			rng := rand.New(rand.NewSource(int64(len(data))<<8 | int64(data[len(data)-1])))
			for i := 0; i < 8; i++ {
				checkCopyArray(t, arr, enc, rng.Intn(len(enc)+2), rng.Intn(len(enc)+2))
			}
		}
	})
}

// checkCopyArray holds the window [off, off+n) CopyArray cuts out of arr's
// encoding to the same bytes of enc = AppendArray(nil, arr), on this host's
// path and on the portable one.
func checkCopyArray(t *testing.T, arr []float64, enc []byte, off, n int) {
	t.Helper()
	want := enc[min(off, len(enc)):min(off+n, len(enc))]
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for _, le := range []bool{hostLittleEndian, false} {
		hostLittleEndian = le
		dst := bytes.Repeat([]byte{0xAA}, n+1)
		got := CopyArray(dst[:n], arr, off)
		if got != len(want) || !bytes.Equal(dst[:got], want) {
			t.Fatalf("CopyArray(%d floats, off=%d, len=%d) little-endian=%t: %d bytes %x, want %x", len(arr), off, n, le, got, dst[:got], want)
		}
		if !bytes.Equal(dst[got:], bytes.Repeat([]byte{0xAA}, n+1-got)) {
			t.Fatalf("CopyArray(off=%d, len=%d) wrote past the %d bytes it reported", off, n, got)
		}
	}
}

// TestCopyArrayEveryWindow cuts small arrays at every offset and length,
// header straddles and the empty array included.
func TestCopyArrayEveryWindow(t *testing.T) {
	for _, arr := range [][]float64{{}, {1.5}, {1.5, math.Inf(-1), math.NaN(), -0.0, 1e-300}} {
		enc, err := AppendArray(nil, arr)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off <= len(enc)+1; off++ {
			for n := 0; n <= len(enc)+1; n++ {
				checkCopyArray(t, arr, enc, off, n)
			}
		}
	}
}

// checkBoxedDecode holds boxes.Decode to Decode's verdict (v, n, err) on
// data, compared through the encoding, which is NaN-safe.
func checkBoxedDecode(t *testing.T, boxes *Boxes, data []byte, v any, n int, err error) {
	t.Helper()
	vb, nb, errb := boxes.Decode(data)
	if nb != n || fmt.Sprint(errb) != fmt.Sprint(err) {
		t.Fatalf("Decode = (%d, %v) but boxed Decode = (%d, %v)", n, err, nb, errb)
	}
	enc, _ := Append(nil, v)
	encB, errE := Append(nil, vb)
	if errE != nil || !bytes.Equal(enc, encB) || reflect.TypeOf(v) != reflect.TypeOf(vb) {
		t.Fatalf("Decode = %#v but boxed Decode = %#v (%v)", v, vb, errE)
	}
}

// checkLoanDecode holds Loan.Decode, its Arr an array of have elements, to
// Decode's verdict (v, n, err) on data.
func checkLoanDecode(t *testing.T, data []byte, have int, v any, n int, err error) {
	t.Helper()
	l := Loan{Arr: make([]float64, have)}
	before := l.Arr
	in := bytes.Clone(data)
	vi, ni, erri := l.Decode(in)
	if ni != n || fmt.Sprint(erri) != fmt.Sprint(err) {
		t.Fatalf("have=%d: Decode = (%d, %v) but Loan.Decode = (%d, %v)", have, n, err, ni, erri)
	}
	if err != nil {
		return
	}
	// Scribbling over the input must not reach the decoded value.
	for i := range in {
		in[i] ^= 0xff
	}
	enc, _ := Append(nil, v)
	encI, errI := Append(nil, vi)
	if errI != nil || !bytes.Equal(enc, encI) {
		t.Fatalf("have=%d: Decode and Loan.Decode disagree: %x vs %x (%v)", have, enc, encI, errI)
	}
	got, isArr := vi.([]float64)
	if !isArr {
		return
	}
	if grown := len(got) > have; grown && cap(l.Arr) != len(got) {
		t.Fatalf("have=%d: array of %d grown to cap %d, want exactly its length", have, len(got), cap(l.Arr))
	} else if !grown && (cap(l.Arr) != have || (have > 0 && &l.Arr[:1][0] != &before[0])) {
		t.Fatalf("have=%d: array of %d replaced the loan's storage", have, len(got))
	}
	if len(l.Arr) != len(got) || (len(got) > 0 && &got[0] != &l.Arr[0]) {
		t.Fatalf("have=%d: result does not live in the loan's array", have)
	}
}

// TestDecodeArbitraryBytesNeverPanics is a deterministic mini fuzz pass
// that runs in the ordinary test suite (go test executes fuzz targets on
// their seed corpus only).
func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 20_000; i++ {
		data := make([]byte, rng.Intn(64))
		for j := range data {
			// Bias towards valid tags so decoding gets past the first byte.
			if rng.Intn(2) == 0 {
				data[j] = byte(1 + rng.Intn(7))
			} else {
				data[j] = byte(rng.Intn(256))
			}
		}
		v, n, err := Decode(data)
		if ns, errs := Skip(data); (err == nil) != (errs == nil) || ns != n {
			t.Fatalf("%x: Decode = (%d, %v) but Skip = (%d, %v)", data, n, err, ns, errs)
		}
		if err != nil {
			continue
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if _, err := Append(nil, v); err != nil {
			t.Fatalf("decoded value %v does not re-encode: %v", v, err)
		}
	}
}
