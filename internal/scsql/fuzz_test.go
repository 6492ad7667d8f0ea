package scsql

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// FuzzParse is the fuzz target of the one parser that reads untrusted text
// (scsq-server parses what any client sends). Over arbitrary input: no
// panic and no runaway recursion; exactly one of a statement and an error;
// and the bytes allocated stay within a constant per input byte, so a frame
// of the wire's maximum size cannot cost more than a fixed multiple of
// itself. The seeds are the paper's queries as corpus.go generates them, the
// sys_* statements of this package's tests, and the deep nestings that
// overflowed the stack before the parser bounded them.
func FuzzParse(f *testing.F) {
	f.Add(Figure5Query(3_000_000, 100))
	f.Add(MergeQuery(1, 2, 300_000, 10))
	for q := 1; q <= 6; q++ {
		src, err := InboundQuery(q, 4, 300_000, 10)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add(GrepQuery("needle", 4))
	for _, src := range []string{
		`select count(sys_nodes());`,
		`select sys_links();`,
		`select sys_metrics('%bytes%');`,
		`select streamof(sys_metrics('rp.%'));`,
		`select limit(streamof(sys_metrics('rp.%')), 3);`,
		`select n.node from stream n where n in sys_nodes() and n.cluster = 'bg' and n.x = 0;`,
		`create function two(integer n) -> stream as select extract(a) from sp a where a=sp(iota(1,n), 'be');`,
		"select " + strings.Repeat("(", 4*maxNesting),
		"select " + strings.Repeat("{", 4*maxNesting),
		"select " + strings.Repeat("- ", 4*maxNesting) + "1;",
		"select " + strings.Repeat("sp((select ", 4*maxNesting),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stmt, err := Parse(src) // must not panic
		runtime.ReadMemStats(&after)
		if (stmt == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a statement and an error", src, stmt, err)
		}
		// One token per byte at worst, in a slice that doubles as it grows
		// (measured: 244 B per byte on 8 MiB of '('); the floor covers what a
		// concurrent runtime goroutine may allocate meanwhile.
		const perByte, floor = 512, 64 << 10
		if got := after.TotalAlloc - before.TotalAlloc; got > perByte*uint64(len(src))+floor {
			t.Fatalf("Parse allocated %d bytes for %d bytes of input", got, len(src))
		}
	})
}

// TestParserNeverPanics feeds the lexer and parser random garbage and
// mutated fragments of real queries; they must return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomSource(rng)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on input %q: %v", src, r)
			}
		}()
		_, _ = Parse(src) // error or statement, either is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// randomSource builds adversarial inputs: random bytes, token soup, and
// truncated/mutated real queries.
func randomSource(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0: // random printable bytes
		b := make([]byte, rng.Intn(120))
		for i := range b {
			b[i] = byte(32 + rng.Intn(95))
		}
		return string(b)
	case 1: // token soup
		tokens := []string{
			"select", "from", "where", "and", "in", "sp", "bag", "of",
			"integer", "create", "function", "as", "->", "(", ")", "{", "}",
			",", ";", "=", "<", "<=", ">", ">=", "<>", "+", "-", "*", "/",
			"a", "b", "iota", "extract", "merge", "spv", "'x'", "42", "3.14",
		}
		var sb strings.Builder
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteByte(' ')
		}
		return sb.String()
	default: // mutated real query
		src := Figure5Query(1000, 2)
		if q, err := InboundQuery(1+rng.Intn(6), 2, 1000, 2); err == nil && rng.Intn(2) == 0 {
			src = q
		}
		b := []byte(src)
		for k := 0; k < 1+rng.Intn(5); k++ {
			switch rng.Intn(3) {
			case 0: // truncate
				if len(b) > 1 {
					b = b[:rng.Intn(len(b))]
				}
			case 1: // flip a byte
				if len(b) > 0 {
					b[rng.Intn(len(b))] = byte(32 + rng.Intn(95))
				}
			default: // duplicate a slice
				if len(b) > 2 {
					i := rng.Intn(len(b) - 1)
					j := i + rng.Intn(len(b)-i)
					b = append(b[:j:j], b[i:]...)
				}
			}
		}
		return string(b)
	}
}

// TestEvaluatorNeverPanicsOnParsedGarbage runs statements that parse but
// may be semantically nonsensical; evaluation must fail cleanly.
func TestEvaluatorNeverPanicsOnParsedGarbage(t *testing.T) {
	sources := []string{
		`select 1;`,
		`select 'str';`,
		`select {a, b} from sp a, sp b where a=sp(iota(1,1), 'be') and b=sp(iota(1,1), 'be');`,
		`select merge(1);`,
		`select extract(extract(a)) from sp a where a=sp(iota(1,1), 'be');`,
		`select sp(iota(1,1));`,
		`select spv((select 1 from integer i where i in iota(1,2)));`,
		`select count(1);`,
		`select iota(1, 'x');`,
		`select gen_array(-5, -5);`,
		`select winagg(iota(1,3), 'sum', -1, -1);`,
		`select x from integer x where x in iota(1,3) and x < 'str';`,
		`select radixcombine(merge({a,b,c})) from sp a, sp b, sp c where a=sp(iota(1,1)) and b=sp(iota(1,1)) and c=sp(iota(1,1));`,
	}
	for _, src := range sources {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			e := newTestEngine(t)
			ev := NewEvaluator(e, nil)
			res, err := ev.Exec(src)
			if err == nil && res.Stream != nil {
				_, _ = res.Stream.Drain() // errors are acceptable; panics are not
			}
		}()
	}
}
