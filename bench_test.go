package scsq_test

import (
	"strings"
	"testing"

	"scsq"
	"scsq/internal/bench"
	"scsq/internal/fft"
	"scsq/internal/marshal"
	"scsq/internal/torus"
)

// BenchmarkPaperFigures regenerates the paper's Figures 6, 8 and 15 through
// the same registry as cmd/scsq-bench, one sub-benchmark per figure, and
// reports every point of the figure as a custom metric named
// "<x>/<series>-<unit>". The absolute numbers come from the calibrated
// virtual-time hardware model; what matters is the shape (see
// EXPERIMENTS.md).
func BenchmarkPaperFigures(b *testing.B) {
	for _, name := range []string{"6", "8", "15"} {
		figs, err := bench.Select(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("fig="+name, func(b *testing.B) {
			var pts []bench.Point
			for i := 0; i < b.N; i++ {
				if pts, err = figs[0].Run(bench.Sizing{Repeats: 1}); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range pts {
				b.ReportMetric(p.Value, strings.ReplaceAll(p.X+"/"+p.Series, " ", "")+"-"+p.Unit)
			}
		})
	}
}

// BenchmarkMarshalArray measures the wire-format encoder on the paper's
// array payloads.
func BenchmarkMarshalArray(b *testing.B) {
	arr := make([]float64, 3_000_000/8)
	buf := make([]byte, 0, 3_100_000)
	b.SetBytes(3_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = marshal.Append(buf[:0], arr)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemarshalArray measures the wire-format decoder.
func BenchmarkDemarshalArray(b *testing.B) {
	arr := make([]float64, 3_000_000/8)
	buf, err := marshal.Append(nil, arr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := marshal.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT measures the radix-2 FFT substrate.
func BenchmarkFFT(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fft.Transform(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTorusRoute measures dimension-ordered route computation.
func BenchmarkTorusRoute(b *testing.B) {
	tor, err := torus.New(8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tor.Route(i%512, (i*37)%512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEndToEnd measures a full engine round trip of the paper's
// Figure 5 query at a small workload.
func BenchmarkQueryEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := scsq.New(scsq.WithMPIBufferBytes(10_000))
		if err != nil {
			b.Fatal(err)
		}
		stream, err := eng.Query(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(30000,10), 'bg', 1);`)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stream.One(); err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
}
