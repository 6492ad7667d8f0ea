package marshal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	buf, err := Append(nil, v)
	if err != nil {
		t.Fatalf("Append(%v): %v", v, err)
	}
	size, err := Size(v)
	if err != nil {
		t.Fatalf("Size(%v): %v", v, err)
	}
	if size != len(buf) {
		t.Fatalf("Size(%v) = %d, encoded %d bytes", v, size, len(buf))
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(buf))
	}
	return got
}

func TestRoundTripScalars(t *testing.T) {
	tests := []struct {
		give any
		want any
	}{
		{nil, nil},
		{int64(0), int64(0)},
		{int64(-42), int64(-42)},
		{int64(math.MaxInt64), int64(math.MaxInt64)},
		{int(7), int64(7)}, // int normalizes to int64
		{3.14159, 3.14159},
		{math.Inf(1), math.Inf(1)},
		{true, true},
		{false, false},
		{"", ""},
		{"hello, 世界", "hello, 世界"},
	}
	for _, tt := range tests {
		if got := roundTrip(t, tt.give); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("round trip %v = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestRoundTripNaN(t *testing.T) {
	got := roundTrip(t, math.NaN())
	f, ok := got.(float64)
	if !ok || !math.IsNaN(f) {
		t.Errorf("NaN round trip = %v", got)
	}
}

func TestRoundTripArray(t *testing.T) {
	arr := []float64{1.5, -2.25, 0, math.MaxFloat64}
	got := roundTrip(t, arr)
	if !reflect.DeepEqual(got, arr) {
		t.Errorf("array round trip = %v, want %v", got, arr)
	}
	if got := roundTrip(t, []float64{}); !reflect.DeepEqual(got, []float64{}) {
		t.Errorf("empty array round trip = %v", got)
	}
}

func TestRoundTripBag(t *testing.T) {
	bag := []any{int64(1), "two", 3.0, []float64{4, 5}, nil, true}
	got := roundTrip(t, bag)
	if !reflect.DeepEqual(got, bag) {
		t.Errorf("bag round trip = %v, want %v", got, bag)
	}
	nested := []any{[]any{int64(1)}, []any{}}
	if got := roundTrip(t, nested); !reflect.DeepEqual(got, nested) {
		t.Errorf("nested bag round trip = %v, want %v", got, nested)
	}
}

func TestUnsupportedType(t *testing.T) {
	if _, err := Append(nil, struct{}{}); err == nil {
		t.Error("Append(struct{}{}) should fail")
	}
	if _, err := Size(make(chan int)); err == nil {
		t.Error("Size(chan) should fail")
	}
	if _, err := Append(nil, []any{struct{}{}}); err == nil {
		t.Error("Append of a bag with an unsupported element should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	full, err := Append(nil, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Decode of %d/%d bytes: err = %v, want ErrTruncated", cut, len(full), err)
		}
	}
}

func TestDecodeUnknownTag(t *testing.T) {
	if _, _, err := Decode([]byte{0xff}); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("err = %v, want ErrUnknownTag", err)
	}
}

// TestTooLargeGuard lowers the u32 element limit (a real >4Gi-element
// value would not fit in test memory) and checks that oversized strings,
// arrays and bags are rejected instead of silently truncating the length
// prefix.
func TestTooLargeGuard(t *testing.T) {
	defer func(old int64) { maxElems = old }(maxElems)
	maxElems = 4
	for _, v := range []any{
		"12345",
		[]float64{1, 2, 3, 4, 5},
		[]any{nil, nil, nil, nil, nil},
		[]any{[]float64{1, 2, 3, 4, 5}}, // nested oversize
	} {
		if _, err := Append(nil, v); !errors.Is(err, ErrTooLarge) {
			t.Errorf("Append(%T of 5) err = %v, want ErrTooLarge", v, err)
		}
		if _, err := Size(v); !errors.Is(err, ErrTooLarge) {
			t.Errorf("Size(%T of 5) err = %v, want ErrTooLarge", v, err)
		}
	}
	// At the limit still fine.
	if _, err := Append(nil, []float64{1, 2, 3, 4}); err != nil {
		t.Errorf("Append at the limit: %v", err)
	}
}

// TestRoundTripProperty fuzzes random value trees through the codec.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randValue(rng, 3)
		buf, err := Append(nil, v)
		if err != nil {
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return reflect.DeepEqual(got, normalize(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randValue builds a random encodable value with bounded nesting depth.
func randValue(rng *rand.Rand, depth int) any {
	kinds := 6
	if depth > 0 {
		kinds = 7
	}
	switch rng.Intn(kinds) {
	case 0:
		return nil
	case 1:
		return rng.Int63() - rng.Int63()
	case 2:
		return rng.NormFloat64()
	case 3:
		return rng.Intn(2) == 0
	case 4:
		b := make([]byte, rng.Intn(20))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	case 5:
		arr := make([]float64, rng.Intn(16))
		for i := range arr {
			arr[i] = rng.NormFloat64()
		}
		return arr
	default:
		bag := make([]any, rng.Intn(4))
		for i := range bag {
			bag[i] = randValue(rng, depth-1)
		}
		return bag
	}
}

// normalize maps a value to its post-decode representation (nil array and
// bag elements stay, but empty slices decode as empty non-nil slices).
func normalize(v any) any {
	switch x := v.(type) {
	case []float64:
		if len(x) == 0 {
			return []float64{}
		}
		return x
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalize(e)
		}
		return out
	default:
		return v
	}
}

// TestTypedFieldReaders checks the reading halves of the typed appenders:
// each reads exactly its own type and nothing from a value cut short.
func TestTypedFieldReaders(t *testing.T) {
	bag, err := Append(nil, []any{int64(-7), "héllo", 2.5})
	if err != nil {
		t.Fatal(err)
	}
	n, off, ok := BagHeader(bag)
	if !ok || n != 3 || off != 5 {
		t.Fatalf("BagHeader = %d, %d, %v", n, off, ok)
	}
	if x, ok := AsInt(bag[off:]); !ok || x != -7 {
		t.Fatalf("AsInt = %d, %v", x, ok)
	}
	if _, ok := AsString(bag[off:]); ok {
		t.Fatal("AsString read an int")
	}
	used, err := Skip(bag[off:])
	if err != nil {
		t.Fatal(err)
	}
	str := bag[off+used:]
	if s, ok := AsString(str); !ok || s != "héllo" {
		t.Fatalf("AsString = %q, %v", s, ok)
	}
	if _, ok := AsInt(str); ok {
		t.Fatal("AsInt read a string")
	}
	if _, ok := AsString(str[:7]); ok {
		t.Fatal("AsString read a string cut short")
	}
	if _, _, ok := BagHeader(str); ok {
		t.Fatal("BagHeader read a string")
	}
	if _, _, ok := BagHeader(bag[:4]); ok {
		t.Fatal("BagHeader read a header cut short")
	}
}

// TestDecodeRejectsNestedBagBombCheaply: 250 kB of nested bag headers that
// each claim 2³¹ elements is truncated input and must be found out at the
// cost of one pass — materializing first sized a slice by the claim at
// every level, 50 000 levels deep.
func TestDecodeRejectsNestedBagBombCheaply(t *testing.T) {
	var bomb []byte
	for i := 0; i < 50_000; i++ {
		bomb = append(bomb, TagBag, 0xff, 0xff, 0xff, 0x7f)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(bomb)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting a %d-byte input allocated %d bytes", len(bomb), got)
	}
}

// TestNewArrayIsItsEncoding: NewArray's array is 8-byte aligned, of length
// and capacity n, and its enc is AppendArray's bytes of whatever the array
// holds, written after NewArray returned.
func TestNewArrayIsItsEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000} {
		arr, enc := NewArray(n)
		if len(arr) != n || cap(arr) != n {
			t.Fatalf("NewArray(%d): len %d cap %d", n, len(arr), cap(arr))
		}
		if n > 0 && uintptr(unsafe.Pointer(&arr[0]))%8 != 0 {
			t.Fatalf("NewArray(%d): array at %p is not 8-byte aligned", n, &arr[0])
		}
		for i := range arr {
			arr[i] = float64(i) - 0.5
		}
		want, err := AppendArray(nil, arr)
		if err != nil {
			t.Fatal(err)
		}
		if !hostLittleEndian {
			want = nil
		}
		if !reflect.DeepEqual(enc, want) {
			t.Fatalf("NewArray(%d): enc %x, want %x", n, enc, want)
		}
	}
}

// TestOversizedLengthIsTruncated: a string, array or bag header may claim up
// to 2³²−1 elements. Converted to an int where an int has 32 bits, a claim
// of 2³¹ or more turns negative and passes a length check, and slicing or
// sizing by it panics. Every reader reports such a value cut short instead,
// on any word size.
func TestOversizedLengthIsTruncated(t *testing.T) {
	for _, tc := range []struct {
		name string
		tag  byte
	}{{"string", TagString}, {"array", TagArray}, {"bag", TagBag}} {
		for _, claim := range []uint32{0x80000000, 0xFFFFFFFF} {
			// The header, then an integer and a null: 10 bytes of what it claims.
			buf := binary.LittleEndian.AppendUint32([]byte{tc.tag}, claim)
			buf = append(AppendInt(buf, 1), TagNull)
			at := fmt.Sprintf("%s claiming %#x", tc.name, claim)
			if _, err := Skip(buf); !errors.Is(err, ErrTruncated) {
				t.Errorf("%s: Skip: %v, want ErrTruncated", at, err)
			}
			if _, _, err := Decode(buf); !errors.Is(err, ErrTruncated) {
				t.Errorf("%s: Decode: %v, want ErrTruncated", at, err)
			}
			var l Loan
			if _, _, err := l.Decode(buf); !errors.Is(err, ErrTruncated) {
				t.Errorf("%s: Loan.Decode: %v, want ErrTruncated", at, err)
			}
			if _, _, err := materialize(buf, nil); !errors.Is(err, ErrTruncated) {
				t.Errorf("%s: materialize: %v, want ErrTruncated", at, err)
			}
			if _, ok := AsString(buf); ok {
				t.Errorf("%s: AsString read a string", at)
			}
		}
	}
}
