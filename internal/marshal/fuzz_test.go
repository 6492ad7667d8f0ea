package marshal

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// FuzzDecodeRoundTrip asserts two properties over arbitrary input bytes:
// Decode must never panic (crafted length prefixes, unknown tags, truncated
// payloads), and any value it does produce must re-encode and decode to the
// same value. DecodeBorrowed must agree with Decode on every input, and so
// must Skip: same accept/reject, same bytes consumed.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := Decode(data) // must not panic
		vb, nb, errb := DecodeBorrowed(data)
		if (err == nil) != (errb == nil) {
			t.Fatalf("Decode err=%v but DecodeBorrowed err=%v", err, errb)
		}
		if ns, errs := Skip(data); (err == nil) != (errs == nil) || ns != n {
			t.Fatalf("Decode = (%d, %v) but Skip = (%d, %v)", n, err, ns, errs)
		}
		if err != nil {
			return
		}
		if n != nb {
			t.Fatalf("Decode consumed %d bytes, DecodeBorrowed %d", n, nb)
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		// Re-encode both; NaN-safe comparison via the encoded bytes.
		enc, err := Append(nil, v)
		if err != nil {
			t.Fatalf("re-encode of decoded value %v: %v", v, err)
		}
		encB, err := Append(nil, vb)
		if err != nil {
			t.Fatalf("re-encode of borrowed value %v: %v", vb, err)
		}
		if !bytes.Equal(enc, encB) {
			t.Fatalf("Decode and DecodeBorrowed disagree: %x vs %x", enc, encB)
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
	})
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
