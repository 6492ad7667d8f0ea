package sqep

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFFTOperatorAgainstDirect checks the fft operator against the direct
// transform.
func TestFFTOperatorAgainstDirect(t *testing.T) {
	signal := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := drainValues(t, NewFFT(NewSlice(any(signal))), nil)
	if len(got) != 1 {
		t.Fatalf("fft produced %d elements, want 1", len(got))
	}
	inter, ok := got[0].([]float64)
	if !ok {
		t.Fatalf("fft result is %T", got[0])
	}
	want, err := fftReal(signal)
	if err != nil {
		t.Fatal(err)
	}
	wantInter := complexToInterleaved(want)
	if len(inter) != len(wantInter) {
		t.Fatalf("len = %d, want %d", len(inter), len(wantInter))
	}
	for i := range inter {
		if math.Abs(inter[i]-wantInter[i]) > 1e-9 {
			t.Fatalf("fft[%d] = %v, want %v", i, inter[i], wantInter[i])
		}
	}
}

func TestFFTOperatorTypeError(t *testing.T) {
	op := NewFFT(NewSlice("not an array"))
	if err := op.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := op.Next(); err == nil {
		t.Error("fft of a string should fail")
	}
}

// TestRadixCombinePipeline rebuilds the radix2 dataflow by hand: split →
// two FFTs → tagged merge → radixcombine, and checks the result equals the
// full FFT.
func TestRadixCombinePipeline(t *testing.T) {
	signal := make([]float64, 32)
	for i := range signal {
		signal[i] = math.Sin(float64(i)) + 0.3*math.Cos(3*float64(i))
	}
	oddHalf := drainValues(t, NewFFT(NewOdd(NewSlice(any(signal)))), nil)
	evenHalf := drainValues(t, NewFFT(NewEven(NewSlice(any(signal)))), nil)

	merged := &Slice{Elements: []Element{
		{Value: evenHalf[0], Src: "even-sp"},
		{Value: oddHalf[0], Src: "odd-sp"},
	}}
	rc := NewRadixCombine(merged, "odd-sp", "even-sp")
	got := drainValues(t, rc, nil)
	if len(got) != 1 {
		t.Fatalf("radixcombine produced %d elements, want 1", len(got))
	}
	inter := got[0].([]float64)

	want, err := fftReal(signal)
	if err != nil {
		t.Fatal(err)
	}
	wantInter := complexToInterleaved(want)
	for i := range wantInter {
		if math.Abs(inter[i]-wantInter[i]) > 1e-9 {
			t.Fatalf("combined[%d] = %v, want %v", i, inter[i], wantInter[i])
		}
	}
}

func TestRadixCombineMultipleArrays(t *testing.T) {
	// Two signal arrays pipelined through the same combine operator; pairs
	// must match up per arrival order within each source.
	mk := func(seed float64) []float64 {
		s := make([]float64, 8)
		for i := range s {
			s[i] = seed + float64(i)
		}
		return s
	}
	var elements []Element
	for _, seed := range []float64{1, 100} {
		odd := drainValues(t, NewFFT(NewOdd(NewSlice(any(mk(seed))))), nil)
		even := drainValues(t, NewFFT(NewEven(NewSlice(any(mk(seed))))), nil)
		elements = append(elements,
			Element{Value: odd[0], Src: "o"},
			Element{Value: even[0], Src: "e"},
		)
	}
	rc := NewRadixCombine(&Slice{Elements: elements}, "o", "e")
	got := drainValues(t, rc, nil)
	if len(got) != 2 {
		t.Fatalf("combined %d arrays, want 2", len(got))
	}
}

func TestRadixCombineErrors(t *testing.T) {
	// Unknown source.
	rc := NewRadixCombine(&Slice{Elements: []Element{{Value: []float64{1, 2}, Src: "zz"}}}, "o", "e")
	if err := rc.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Next(); err == nil {
		t.Error("unexpected source should fail")
	}
	// Unpaired stream at end.
	rc = NewRadixCombine(&Slice{Elements: []Element{{Value: []float64{1, 2}, Src: "o"}}}, "o", "e")
	if err := rc.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Next(); err == nil {
		t.Error("unpaired partial FFT should fail")
	}
	// Mismatched half lengths.
	rc = NewRadixCombine(&Slice{Elements: []Element{
		{Value: []float64{1, 2}, Src: "o"},
		{Value: []float64{1, 2, 3, 4}, Src: "e"},
	}}, "o", "e")
	if err := rc.Open(testCtx()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.Next(); err == nil {
		t.Error("mismatched halves should fail")
	}
}

func TestFFTCostGrowsLogLinear(t *testing.T) {
	small := fftCost(16)
	big := fftCost(1024)
	if big <= small {
		t.Errorf("fftCost(1024)=%v should exceed fftCost(16)=%v", big, small)
	}
	if fftCost(1) <= 0 {
		t.Error("fftCost(1) must be positive")
	}
}

const eps = 1e-9

func approxEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// dft is the O(n²) reference implementation.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			out[k] += x[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(j)/float64(n)))
		}
	}
	return out
}

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestTransformMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randSignal(rng, n)
		got, err := fftTransform(x)
		if err != nil {
			t.Fatalf("fftTransform(n=%d): %v", n, err)
		}
		if want := dft(x); !approxEqual(got, want, 1e-7*float64(n)) {
			t.Errorf("fftTransform(n=%d) diverges from the reference DFT", n)
		}
	}
}

func TestTransformRejectsNonPowerOfTwo(t *testing.T) {
	_, err := fftTransform(make([]complex128, 3))
	var npo *notPowerOfTwoError
	if !errors.As(err, &npo) {
		t.Fatalf("error = %v, want notPowerOfTwoError", err)
	}
	if npo.N != 3 {
		t.Errorf("N = %d, want 3", npo.N)
	}
}

func TestTransformEmptyInput(t *testing.T) {
	out, err := fftTransform(nil)
	if err != nil || out != nil {
		t.Errorf("fftTransform(nil) = %v, %v; want nil, nil", out, err)
	}
}

func TestTransformDoesNotModifyInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	orig := append([]complex128(nil), x...)
	if _, err := fftTransform(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("input modified at %d: %v != %v", i, x[i], orig[i])
		}
	}
}

// TestInverseRoundTrip is a property test: Inverse(fftTransform(x)) == x.
func TestInverseRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (sz % 9) // 1..256
		x := randSignal(rng, n)
		y, err := fftTransform(x)
		if err != nil {
			return false
		}
		back, err := inverseFFT(y)
		if err != nil {
			return false
		}
		return approxEqual(back, x, 1e-8*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestParseval is a property test: energy is preserved up to the 1/n
// normalization — sum |x|² == (1/n)·sum |X|².
func TestParseval(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (sz%8 + 1) // 2..256
		x := randSignal(rng, n)
		y, err := fftTransform(x)
		if err != nil {
			return false
		}
		var ex, ey float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		return math.Abs(ex-ey/float64(n)) < 1e-6*ex+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCombineEqualsFullTransform is the radix-2 identity the paper's query
// parallelizes: fftCombine(FFT(even), FFT(odd)) == FFT(full).
func TestCombineEqualsFullTransform(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (sz%7 + 1) // 2..128
		x := randSignal(rng, n)
		even := make([]complex128, 0, n/2)
		odd := make([]complex128, 0, n/2)
		for i := 0; i < n; i += 2 {
			even = append(even, x[i])
		}
		for i := 1; i < n; i += 2 {
			odd = append(odd, x[i])
		}
		fe, err := fftTransform(even)
		if err != nil {
			return false
		}
		fo, err := fftTransform(odd)
		if err != nil {
			return false
		}
		combined, err := fftCombine(fe, fo)
		if err != nil {
			return false
		}
		full, err := fftTransform(x)
		if err != nil {
			return false
		}
		return approxEqual(combined, full, 1e-7*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCombineValidation(t *testing.T) {
	if _, err := fftCombine(make([]complex128, 2), make([]complex128, 4)); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := fftCombine(make([]complex128, 3), make([]complex128, 3)); err == nil {
		t.Error("non-power-of-two halves should fail")
	}
	out, err := fftCombine(nil, nil)
	if err != nil || out != nil {
		t.Errorf("fftCombine(nil,nil) = %v, %v; want nil, nil", out, err)
	}
}

func TestTransformRealKnownSpectrum(t *testing.T) {
	// A pure cosine at bin 2 of 16 samples: X[2] = X[14] = 8.
	const n = 16
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 2 * float64(i) / n)
	}
	y, err := fftReal(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		want := 0.0
		if k == 2 || k == 14 {
			want = 8
		}
		if math.Abs(cmplx.Abs(y[k])-want) > 1e-9 {
			t.Errorf("|X[%d]| = %v, want %v", k, cmplx.Abs(y[k]), want)
		}
	}
}

func TestInterleavedConversionRoundTrip(t *testing.T) {
	x := []complex128{complex(1, 2), complex(3, 4)}
	inter := complexToInterleaved(x)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if inter[i] != want[i] {
			t.Fatalf("interleaved = %v, want %v", inter, want)
		}
	}
	back, err := interleavedToComplex(inter)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(back, x, 0) {
		t.Fatalf("round trip = %v, want %v", back, x)
	}
	if _, err := interleavedToComplex([]float64{1, 2, 3}); err == nil {
		t.Error("odd-length interleaved input should fail")
	}
}

// inverseFFT computes the inverse FFT of x (power-of-two length), the
// reference TestInverseRoundTrip inverts the transform with.
func inverseFFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	conj := make([]complex128, n)
	for i, v := range x {
		conj[i] = cmplx.Conj(v)
	}
	y, err := fftTransform(conj)
	if err != nil {
		return nil, err
	}
	for i, v := range y {
		y[i] = cmplx.Conj(v) / complex(float64(n), 0)
	}
	return y, nil
}

// BenchmarkFFT measures the radix-2 FFT substrate.
func BenchmarkFFT(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fftTransform(x); err != nil {
			b.Fatal(err)
		}
	}
}
