// The lofar example reproduces the paper's Figure 1 dataflow end to end:
// antenna streams are received on the back-end Linux cluster, the BlueGene
// performs the real-time numerical computation (an FFT per array — the
// kind of work LOFAR runs to detect astronomical events), the front-end
// cluster post-processes the results, and the client receives the final
// stream. Three clusters, three stream processes, one declarative query.
package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"scsq"
)

const (
	samples  = 1 << 12 // per array; FFT needs a power of two
	arrays   = 16
	toneBin  = 129
	toneGain = 40.0
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lofar:", err)
		os.Exit(1)
	}
}

func run() error {
	// Synthetic antenna data: noise-free sky with a transient tone in the
	// second half of the observation (the "astronomical event").
	signals := make([][]float64, arrays)
	for a := range signals {
		sig := make([]float64, samples)
		for i := range sig {
			sig[i] = math.Sin(2 * math.Pi * 7 * float64(i) / samples) // background
			if a >= arrays/2 {
				sig[i] += toneGain * math.Sin(2*math.Pi*toneBin*float64(i)/samples)
			}
		}
		signals[a] = sig
	}

	eng, err := scsq.New(scsq.WithArraySource("antennas", signals...))
	if err != nil {
		return err
	}
	defer eng.Close()

	// pre     — back-end cluster: receives the sensor stream (Figure 1:
	//           "another Linux back-end cluster first receives the streams
	//           from the sensors where they are pre-processed").
	// compute — BlueGene: FFT each array, the expensive real-time step.
	// post    — front-end cluster: post-processing stage through which the
	//           result stream reaches the user (like the paper's process c,
	//           which passes results on unchanged).
	stream, err := eng.Query(`
select extract(post)
from sp pre, sp compute, sp post
where post=sp(extract(compute), 'fe')
and   compute=sp(fft(extract(pre)), 'bg')
and   pre=sp(receiver('antennas'), 'be');`)
	if err != nil {
		return err
	}
	spectra, err := stream.Drain()
	if err != nil {
		return err
	}

	fmt.Printf("received %d spectra from the BlueGene (virtual makespan %v)\n\n", len(spectra), stream.Makespan())
	fmt.Println("event detector (front-end post-processing):")
	events := 0
	for i, el := range spectra {
		inter, ok := el.Value.([]float64) // interleaved re, im
		if !ok {
			return fmt.Errorf("spectrum %d is %T", i, el.Value)
		}
		bin, power := peakBin(inter)
		marker := ""
		if bin == toneBin && power > toneGain/4 {
			events++
			marker = "  <-- transient detected"
		}
		fmt.Printf("  array %2d: peak bin %4d, power %7.2f%s\n", i, bin, power, marker)
	}
	fmt.Printf("\n%d transient events in %d arrays\n", events, len(spectra))

	// The bottleneck analysis is itself a stream query: sys_resources() has
	// one row per (device, owning query) with the virtual time the device
	// was busy. Only this query has run, so a device has one row.
	usage, err := eng.Query(`select sys_resources();`)
	if err != nil {
		return err
	}
	rows, err := usage.Drain()
	if err != nil {
		return err
	}
	// A catalog row is a tuple with named fields (r.busy_ns in SCSQL).
	field := func(el scsq.Element, name string) any {
		v, _ := el.Value.(interface{ Field(string) (any, bool) }).Field(name)
		return v
	}
	busy := func(el scsq.Element) int64 { return field(el, "busy_ns").(int64) }
	slices.SortStableFunc(rows, func(a, b scsq.Element) int { return cmp.Compare(busy(b), busy(a)) })
	fmt.Println("\nbusiest simulated resources:")
	for _, el := range rows[:min(4, len(rows))] {
		share := float64(busy(el)) / float64(stream.Makespan())
		fmt.Printf("  %-12s %12v %6.1f%%\n", field(el, "resource"), time.Duration(busy(el)), share*100)
	}
	return nil
}

// peakBin returns the dominant non-DC frequency bin of an interleaved
// spectrum and its normalized power.
func peakBin(inter []float64) (int, float64) {
	n := len(inter) / 2
	bestBin, bestPow := 0, 0.0
	for k := 1; k < n/2; k++ {
		p := math.Hypot(inter[2*k], inter[2*k+1]) / float64(n) * 2
		if p > bestPow {
			bestBin, bestPow = k, p
		}
	}
	return bestBin, bestPow
}
