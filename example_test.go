package scsq_test

import (
	"cmp"
	"fmt"
	"log"
	"math"
	"slices"
	"time"

	"scsq"
)

// The paper's Figure 5 measurement query: a stream process on BlueGene node
// 1 generates a finite stream of 3 MB arrays, a second process on node 0
// counts them, and only the count travels to the client — so the query's
// completion time measures the intra-BlueGene streaming bandwidth.
func Example_quickstart() {
	const (
		arrayBytes = 3_000_000
		arrayCount = 100
	)
	eng, err := scsq.New(scsq.WithMPIBufferBytes(1000)) // the Figure 6 optimum
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	stream, err := eng.Query(fmt.Sprintf(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(%d,%d), 'bg', 1);`, arrayBytes, arrayCount))
	if err != nil {
		log.Fatal(err)
	}
	count, err := stream.One()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arrays counted:      %v\n", count)
	fmt.Printf("virtual makespan:    %v\n", stream.Makespan())
	fmt.Printf("streaming bandwidth: %.1f Mbps\n", stream.BandwidthMbps(int64(arrayBytes)*arrayCount))
	// Output:
	// arrays counted:      100
	// virtual makespan:    5.850396117s
	// streaming bandwidth: 410.2 Mbps
}

// The paper's distributed mapreduce query (§2.4): parallel grep subqueries,
// one per file of a corpus, each in its own stream process on the back-end
// cluster, whose matching lines merge at the client; iota(1,n) both sets the
// degree of parallelism and keys the filename table. The paper uses 1000
// files.
func Example_grep() {
	const files = 40
	names := make([]string, 0, files)
	contents := make(map[string]string, files)
	for i := 1; i <= files; i++ {
		name := fmt.Sprintf("obslog-%03d.txt", i)
		names = append(names, name)
		body := fmt.Sprintf("observation %d started\nconditions nominal\n", i)
		if i%3 == 0 {
			body += fmt.Sprintf("antenna %d calibrated\n", i)
		}
		if i%7 == 0 {
			body += fmt.Sprintf("antenna %d flagged for interference\n", i)
		}
		contents[name] = body + "observation complete"
	}
	eng, err := scsq.New(scsq.WithFiles(names, contents))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	stream, err := eng.Query(fmt.Sprintf(`
merge(spv(
    select grep('antenna', filename(i))
    from integer i
    where i in iota(1,%d), 'be', urr('be')));`, files))
	if err != nil {
		log.Fatal(err)
	}
	matches, err := stream.Drain()
	if err != nil {
		log.Fatal(err)
	}
	lines := make([]string, len(matches))
	for i, m := range matches {
		lines[i] = fmt.Sprint(m.Value)
	}
	slices.Sort(lines)
	fmt.Printf("%d matching lines across %d files, the first:\n", len(lines), files)
	for _, l := range lines[:4] {
		fmt.Println(" ", l)
	}
	// Output:
	// 18 matching lines across 40 files, the first:
	//   antenna 12 calibrated
	//   antenna 14 flagged for interference
	//   antenna 15 calibrated
	//   antenna 18 calibrated
}

// The paper's radix-2 FFT query function (§2.4): the signal source c feeds
// two stream processes a and b that transform the odd- and even-indexed
// samples in parallel, and radixcombine() recombines their partial FFTs into
// the full spectrum. The function is defined once with create function and
// then applied to a named antenna source.
func Example_fft() {
	// Two tones at bins 8 and 32 plus a DC offset, 256 samples.
	const n = 256
	signal := make([]float64, n)
	for i := range signal {
		signal[i] = 0.5 + math.Sin(2*math.Pi*8*float64(i)/n) + 0.5*math.Cos(2*math.Pi*32*float64(i)/n)
	}
	eng, err := scsq.New(scsq.WithArraySource("antenna", signal))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	if _, err := eng.Exec(`
create function radix2(string s)
              -> stream
as select radixcombine(merge({a,b}))
from sp a, sp b, sp c
where a=sp(fft(odd(extract(c))))
and   b=sp(fft(even(extract(c))))
and   c=sp(receiver(s));`); err != nil {
		log.Fatal(err)
	}
	stream, err := eng.Query(`select radix2('antenna');`)
	if err != nil {
		log.Fatal(err)
	}
	v, err := stream.One()
	if err != nil {
		log.Fatal(err)
	}
	spectrum := v.([]float64) // interleaved re, im
	fmt.Println("dominant bins of the", n, "point FFT:")
	for k := 0; k < n/2; k++ {
		if mag := math.Hypot(spectrum[2*k], spectrum[2*k+1]) / n; mag > 0.1 {
			fmt.Printf("  bin %3d  |X| = %6.3f\n", k, mag)
		}
	}
	fmt.Printf("virtual makespan: %v\n", stream.Makespan())
	// Output:
	// dominant bins of the 256 point FFT:
	//   bin   0  |X| =  0.500
	//   bin   8  |X| =  0.500
	//   bin  32  |X| =  0.250
	// virtual makespan: 1.742267ms
}

// SCSQL allocation sequences set up communication topologies, as in the
// paper, to measure which streams fastest: intra-BlueGene merging with the
// sequential node selection (through a busy intermediate co-processor)
// against the balanced one (disjoint torus channels), Figures 7–8; and
// inbound streaming over one I/O node (Query 1) against round-robin over all
// I/O nodes (Query 5), Figure 15. The paper's 3 MB arrays are the size its
// cost model is calibrated for.
func Example_topology() {
	const arrayBytes, arrayCount = 3_000_000, 20
	bandwidth := func(q string, streams int, opts ...scsq.Option) float64 {
		eng, err := scsq.New(opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		stream, err := eng.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := stream.One(); err != nil {
			log.Fatal(err)
		}
		return stream.BandwidthMbps(int64(streams) * arrayBytes * arrayCount)
	}
	merge := func(x, y int) float64 {
		return bandwidth(fmt.Sprintf(`
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({a,b})), 'bg', 0)
and   a=sp(gen_array(%[1]d,%[2]d), 'bg', %[3]d)
and   b=sp(gen_array(%[1]d,%[2]d), 'bg', %[4]d);`, arrayBytes, arrayCount, x, y),
			2, scsq.WithMPIBufferBytes(100_000))
	}
	seq, bal := merge(1, 2), merge(1, 4)
	fmt.Printf("merging, sequential (a=1,b=2,c=0): %7.1f Mbps\n", seq)
	fmt.Printf("merging, balanced   (a=1,b=4,c=0): %7.1f Mbps (%+.1f%%)\n", bal, (bal/seq-1)*100)

	gen := fmt.Sprintf(`spv((select gen_array(%d,%d) from integer i where i in iota(1,n)), 'be', 1)`, arrayBytes, arrayCount)
	single := bandwidth(`
select extract(c) from
bag of sp a, sp b, sp c, integer n
where c=sp(extract(b), 'bg')
and   b=sp(count(merge(a)), 'bg')
and   a=`+gen+`
and   n=4;`, 4)
	spread := bandwidth(`
select extract(c) from
bag of sp a, bag of sp b, sp c, integer n
where c=sp(streamof(sum(merge(b))), 'bg')
and   b=spv((select streamof(count(extract(p))) from sp p where p in a), 'bg', psetrr())
and   a=`+gen+`
and   n=4;`, 4)
	fmt.Printf("inbound n=4, one I/O node (Query 1):    %7.1f Mbps\n", single)
	fmt.Printf("inbound n=4, psetrr() spread (Query 5): %7.1f Mbps (%+.1f%%)\n", spread, (spread/single-1)*100)
	// Output:
	// merging, sequential (a=1,b=2,c=0):   183.3 Mbps
	// merging, balanced   (a=1,b=4,c=0):   306.7 Mbps (+67.3%)
	// inbound n=4, one I/O node (Query 1):      268.4 Mbps
	// inbound n=4, psetrr() spread (Query 5):   874.4 Mbps (+225.8%)
}

// The paper's Figure 1 dataflow end to end: antenna streams are received on
// the back-end cluster, the BlueGene runs an FFT per array (the real-time
// computation LOFAR uses to detect astronomical events), the front-end
// cluster passes the results on, and the client detects the transient tone
// of the observation's second half. The bottleneck analysis is a stream
// query too: sys_resources() has a row per (device, query) with the virtual
// time the device was busy.
func Example_lofar() {
	const (
		samples  = 1 << 12 // per array; FFT needs a power of two
		arrays   = 16
		toneBin  = 129
		toneGain = 40.0
	)
	signals := make([][]float64, arrays)
	for a := range signals {
		sig := make([]float64, samples)
		for i := range sig {
			sig[i] = math.Sin(2 * math.Pi * 7 * float64(i) / samples)
			if a >= arrays/2 {
				sig[i] += toneGain * math.Sin(2*math.Pi*toneBin*float64(i)/samples)
			}
		}
		signals[a] = sig
	}
	eng, err := scsq.New(scsq.WithArraySource("antennas", signals...))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	stream, err := eng.Query(`
select extract(post)
from sp pre, sp compute, sp post
where post=sp(extract(compute), 'fe')
and   compute=sp(fft(extract(pre)), 'bg')
and   pre=sp(receiver('antennas'), 'be');`)
	if err != nil {
		log.Fatal(err)
	}
	spectra, err := stream.Drain()
	if err != nil {
		log.Fatal(err)
	}
	events := 0
	for _, el := range spectra {
		inter := el.Value.([]float64) // interleaved re, im
		bin, power := 0, 0.0
		for k := 1; k < samples/2; k++ {
			if p := math.Hypot(inter[2*k], inter[2*k+1]) / samples * 2; p > power {
				bin, power = k, p
			}
		}
		if bin == toneBin && power > toneGain/4 {
			events++
		}
	}
	fmt.Printf("%d transient events in %d spectra, virtual makespan %v\n", events, len(spectra), stream.Makespan())

	usage, err := eng.Query(`select sys_resources();`)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := usage.Drain()
	if err != nil {
		log.Fatal(err)
	}
	field := func(el scsq.Element, name string) any {
		v, _ := el.Value.(interface{ Field(string) (any, bool) }).Field(name)
		return v
	}
	busy := func(el scsq.Element) int64 { return field(el, "busy_ns").(int64) }
	slices.SortStableFunc(rows, func(a, b scsq.Element) int { return cmp.Compare(busy(b), busy(a)) })
	fmt.Println("busiest simulated resources:")
	for _, el := range rows[:min(4, len(rows))] {
		share := float64(busy(el)) / float64(stream.Makespan())
		fmt.Printf("  %-8s %12v %6.1f%%\n", field(el, "resource"), time.Duration(busy(el)), share*100)
	}
	// Output:
	// 8 transient events in 16 spectra, virtual makespan 54.54663ms
	// busiest simulated resources:
	//   fe0.nic   43.740704ms   80.2%
	//   io0.fwd    31.46048ms   57.7%
	//   bg0.cpu    15.72984ms   28.8%
	//   be0.nic    12.95712ms   23.8%
}

// An expensive per-element function, a future-work item of the paper (§5):
// an FFT over each sensor stream, parallelized across n BlueGene stream
// processes with spv(). Each process transforms and counts its own stream;
// only the counts leave the BlueGene. Throughput grows with the processes
// until the receiving side saturates. The arrays are 512 KiB (65536
// samples, a power of two as the FFT needs), so the real transforms the
// example computes take about a second.
func Example_expensive() {
	const arrayBytes, arrayCount = 8 * 65536, 4
	var base float64
	for n := 1; n <= 8; n *= 2 {
		eng, err := scsq.New()
		if err != nil {
			log.Fatal(err)
		}
		stream, err := eng.Query(fmt.Sprintf(`
select extract(c) from
bag of sp a, bag of sp b, sp c,
integer n
where c=sp(streamof(sum(merge(b))), 'bg')
and   b=spv(
  (select streamof(count(fft(extract(p))))
   from sp p
   where p in a),
            'bg', psetrr())
and   a=spv(
  (select gen_array(%d,%d)
   from integer i where i in iota(1,n)),
            'be', 1)
and   n=%d;`, arrayBytes, arrayCount, n))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := stream.One(); err != nil {
			log.Fatal(err)
		}
		eng.Close()
		mbps := stream.BandwidthMbps(int64(n) * arrayBytes * arrayCount)
		if n == 1 {
			base = mbps
		}
		fmt.Printf("%d processes: makespan %v, %.1f Mbps (%.1fx)\n", n, stream.Makespan(), mbps, mbps/base)
	}
	// Output:
	// 1 processes: makespan 89.554061ms, 187.3 Mbps (1.0x)
	// 2 processes: makespan 94.854695ms, 353.7 Mbps (1.9x)
	// 4 processes: makespan 109.686839ms, 611.8 Mbps (3.3x)
	// 8 processes: makespan 231.171055ms, 580.6 Mbps (3.1x)
}
