package sqep

import (
	"fmt"
	"math"
	"math/cmplx"

	"scsq/internal/vtime"
)

// fftCostPerSample is the virtual CPU cost per sample·log2(n) of an FFT.
const fftCostPerSample = 8.0

// NewFFT returns the fft(s) operator: each real-valued array element is
// replaced by its discrete Fourier transform, encoded as an interleaved
// [re, im, re, im, ...] array.
func NewFFT(input Operator) *MapFn {
	return NewMapFn("fft", input, func(v any) (any, vtime.Duration, error) {
		arr, ok := v.([]float64)
		if !ok {
			return nil, 0, typeErrorf("fft", v)
		}
		out, err := fftReal(arr)
		if err != nil {
			return nil, 0, err
		}
		return complexToInterleaved(out), fftCost(len(arr)), nil
	})
}

// RadixCombine implements radixcombine(merge({a,b})): it pairs the partial
// FFT results arriving from the odd-half and even-half stream processes and
// recombines each pair into the FFT of the full signal (paper §2.4). The
// merged input interleaves elements from the two producers in arrival
// order; elements are demultiplexed by their Src tag.
type RadixCombine struct {
	Input Operator
	// OddSrc and EvenSrc are the producer ids of the fft(odd(...)) and
	// fft(even(...)) streams.
	OddSrc, EvenSrc string

	ctx        *Ctx
	oddQ, evnQ []Element
}

var _ Operator = (*RadixCombine)(nil)

// NewRadixCombine returns a radixcombine operator over the merged input.
func NewRadixCombine(input Operator, oddSrc, evenSrc string) *RadixCombine {
	return &RadixCombine{Input: input, OddSrc: oddSrc, EvenSrc: evenSrc}
}

// Open implements Operator.
func (r *RadixCombine) Open(ctx *Ctx) error {
	r.ctx = ctx
	r.oddQ, r.evnQ = nil, nil
	return r.Input.Open(ctx)
}

// Next implements Operator.
func (r *RadixCombine) Next() (Element, bool, error) {
	for len(r.oddQ) == 0 || len(r.evnQ) == 0 {
		el, ok, err := r.Input.Next()
		if err != nil {
			return Element{}, false, err
		}
		if !ok {
			if len(r.oddQ) != 0 || len(r.evnQ) != 0 {
				return Element{}, false, fmt.Errorf("sqep: radixcombine: unpaired partial FFTs at end of stream (odd=%d even=%d)", len(r.oddQ), len(r.evnQ))
			}
			return Element{}, false, nil
		}
		switch el.Src {
		case r.OddSrc:
			r.oddQ = append(r.oddQ, el)
		case r.EvenSrc:
			r.evnQ = append(r.evnQ, el)
		default:
			return Element{}, false, fmt.Errorf("sqep: radixcombine: element from unexpected source %q", el.Src)
		}
	}
	oddEl, evnEl := r.oddQ[0], r.evnQ[0]
	r.oddQ, r.evnQ = r.oddQ[1:], r.evnQ[1:]

	odd, err := toComplex(oddEl.Value)
	if err != nil {
		return Element{}, false, err
	}
	even, err := toComplex(evnEl.Value)
	if err != nil {
		return Element{}, false, err
	}
	combined, err := fftCombine(even, odd)
	if err != nil {
		return Element{}, false, fmt.Errorf("sqep: radixcombine: %w", err)
	}
	at := r.ctx.Charge(vtime.MaxTime(oddEl.At, evnEl.At), fftCost(len(combined)))
	return Element{Value: complexToInterleaved(combined), At: at}, true, nil
}

// Close implements Operator.
func (r *RadixCombine) Close() error { return r.Input.Close() }

func toComplex(v any) ([]complex128, error) {
	arr, ok := v.([]float64)
	if !ok {
		return nil, typeErrorf("radixcombine", v)
	}
	return interleavedToComplex(arr)
}

func fftCost(n int) vtime.Duration {
	if n <= 1 {
		return vtime.Duration(fftCostPerSample)
	}
	log2 := 0
	for m := n; m > 1; m >>= 1 {
		log2++
	}
	return vtime.Duration(fftCostPerSample * float64(n) * float64(log2))
}

// The radix-2 fast Fourier transform behind the paper's radix2 query
// function (§2.4). The decomposition FFT(x) = combine(FFT(even(x)),
// FFT(odd(x))) is exactly what the SCSQL query parallelizes over two stream
// processes; fftCombine is the butterfly-recombination step (the query's
// radixcombine()).

// notPowerOfTwoError reports an FFT input whose length is not a power of two.
type notPowerOfTwoError struct{ N int }

func (e *notPowerOfTwoError) Error() string {
	return fmt.Sprintf("fft: length %d is not a power of two", e.N)
}

// fftTransform computes the in-order radix-2 DIT FFT of x. The input length
// must be a power of two (including 1). The input is not modified.
func fftTransform(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	if n&(n-1) != 0 {
		return nil, &notPowerOfTwoError{N: n}
	}
	out := make([]complex128, n)
	copy(out, x)
	bitReverse(out)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := cmplx.Exp(complex(0, step*float64(k)))
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
			}
		}
	}
	return out, nil
}

// fftCombine performs the radix-2 recombination: given E = FFT(even samples)
// and O = FFT(odd samples) of a signal of length 2·len(E), it returns the
// FFT of the full signal. len(even) must equal len(odd) and be a power of
// two.
func fftCombine(even, odd []complex128) ([]complex128, error) {
	if len(even) != len(odd) {
		return nil, fmt.Errorf("fft: combine halves differ in length (%d vs %d)", len(even), len(odd))
	}
	h := len(even)
	if h == 0 {
		return nil, nil
	}
	if h&(h-1) != 0 {
		return nil, &notPowerOfTwoError{N: h}
	}
	n := 2 * h
	out := make([]complex128, n)
	for k := 0; k < h; k++ {
		w := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		t := w * odd[k]
		out[k] = even[k] + t
		out[k+h] = even[k] - t
	}
	return out, nil
}

// fftReal computes the FFT of a real-valued signal.
func fftReal(x []float64) ([]complex128, error) {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return fftTransform(c)
}

// bitReverse permutes x into bit-reversed order in place.
func bitReverse(x []complex128) {
	n := len(x)
	j := 0
	for i := 1; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// interleavedToComplex converts [re0, im0, re1, im1, ...] to complex
// values. The input length must be even.
func interleavedToComplex(x []float64) ([]complex128, error) {
	if len(x)%2 != 0 {
		return nil, fmt.Errorf("fft: interleaved input length %d is odd", len(x))
	}
	out := make([]complex128, len(x)/2)
	for i := range out {
		out[i] = complex(x[2*i], x[2*i+1])
	}
	return out, nil
}

// complexToInterleaved converts complex values to [re0, im0, re1, im1, ...].
func complexToInterleaved(x []complex128) []float64 {
	out := make([]float64, 2*len(x))
	for i, v := range x {
		out[2*i] = real(v)
		out[2*i+1] = imag(v)
	}
	return out
}
