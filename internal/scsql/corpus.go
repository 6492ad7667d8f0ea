package scsql

import (
	"fmt"
	"strings"
)

// This file holds the paper's query corpus in canonical form. The texts
// follow the listings in the paper §2.4 and §3 exactly, except that (a)
// obvious typos in the printed listings are fixed (the paper's Figure-5 and
// Query-3 listings have misplaced parentheses), and (b) the workload
// parameters — array size, array count, and the parallelism degree n — are
// template parameters so the experiment harness can sweep them. With
// size=3000000, count=100 and n=4 the texts match the paper character for
// character (modulo whitespace).

// Figure5Query is the intra-BG point-to-point streaming query (paper §3.1,
// Figure 5): a generates a stream of large arrays on BG node 1 and b counts
// them on BG node 0.
func Figure5Query(size, count int) string {
	return fmt.Sprintf(`
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and   a=sp(gen_array(%d,%d), 'bg', 1);`, size, count)
}

// MergeQuery is the intra-BG stream-merging query (paper §3.1, Figures
// 7-8): one producer SP per node of producers, named a, b, ..., streams its
// arrays to the SP named by the next letter, which merges and counts them on
// node 0. Two producers give the paper's listing, c merging a and b; the
// sequential node selection of Figure 7A is producers 1, 2, the balanced
// selection of Figure 7B is 1, 4. Letters bound it to 25 producers.
func MergeQuery(producers []int, size, count int) string {
	c := string(rune('a' + len(producers)))
	var from, merged, defs strings.Builder
	for i, node := range producers {
		p := string(rune('a' + i))
		if i > 0 {
			merged.WriteByte(',')
		}
		merged.WriteString(p)
		fmt.Fprintf(&from, "sp %s, ", p)
		fmt.Fprintf(&defs, "\nand   %s=sp(gen_array(%d,%d), 'bg', %d)", p, size, count, node)
	}
	return fmt.Sprintf(`
select extract(%s)
from %ssp %s
where %s=sp(count(merge({%s})), 'bg', 0)%s;`, c, from.String(), c, c, merged.String(), defs.String())
}

// InboundQuery returns Query q (1..6) of the BG inbound streaming
// experiments (paper §3.2) with n parallel back-end streams of count arrays
// of size bytes each. The even queries spread the producers over the
// back-end (urr('be')), the odd ones put them all on node 1; Queries 1 and 2
// merge the streams on one BlueGene node, 3 to 6 count each stream on a node
// of its own, in pset 1 (3, 4) or in the psets in turn (5, 6).
func InboundQuery(q, n, size, count int) (string, error) {
	if q < 1 || q > 6 {
		return "", fmt.Errorf("scsql: no such inbound query %d (want 1-6)", q)
	}
	gen := fmt.Sprintf(`(select gen_array(%d,%d)
      from integer i where i in iota(1,n))`, size, count)
	producers := "1"
	if q%2 == 0 {
		producers = "urr('be')"
	}
	if q <= 2 {
		return fmt.Sprintf(`
select extract(c) from
bag of sp a, sp b, sp c,
integer n
where c=sp(extract(b), 'bg')
and   b=sp(count(merge(a)), 'bg')
and   a=spv(%s, 'be', %s)
and   n=%d;`, gen, producers, n), nil
	}
	counters := "inPset(1)"
	if q >= 5 {
		counters = "psetrr()"
	}
	return fmt.Sprintf(`
select extract(c) from
bag of sp a, bag of sp b, sp c,
integer n
where c=sp(streamof(sum(merge(b))), 'bg')
and   b=spv(
  (select streamof(count(extract(p)))
   from sp p
   where p in a),
            'bg', %s)
and   a=spv(%s, 'be', %s)
and   n=%d;`, counters, gen, producers, n), nil
}

// Radix2Def is the radix-2 FFT query function definition (paper §2.4).
const Radix2Def = `
create function radix2(string s)
              -> stream
as select radixcombine(merge({a,b}))
from sp a, sp b, sp c
where a=sp(fft(odd(extract(c))))
and   b=sp(fft(even(extract(c))))
and   c=sp(receiver(s));`
