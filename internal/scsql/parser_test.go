package scsql

import (
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"scsq/internal/race"
)

// lex returns every token of src, EOF last, or its first lexical error.
func lex(src string) ([]Token, error) {
	lx := newLexer(src)
	var toks []Token
	for {
		tok := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		if toks = append(toks, tok); tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := lex(`select extract(b) from sp a where a = sp('x', 1); -- comment`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]Kind, 0, len(toks))
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []Kind{
		TokSelect, TokIdent, TokLParen, TokIdent, TokRParen,
		TokFrom, TokIdent, TokIdent,
		TokWhere, TokIdent, TokEquals, TokIdent, TokLParen, TokString,
		TokComma, TokNumber, TokRParen, TokSemicolon, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestLexStringsAndArrow(t *testing.T) {
	toks, err := lex(`"double" 'single' ->`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokString || toks[0].Text != "double" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != TokString || toks[1].Text != "single" {
		t.Errorf("tok1 = %+v", toks[1])
	}
	if toks[2].Kind != TokArrow {
		t.Errorf("tok2 = %+v", toks[2])
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex(`'unterminated`); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lex(`select @`); err == nil {
		t.Error("stray character should fail")
	}
}

// TestParseReportsTheFirstError: tokens are lexed as the parser reads them,
// so a lexical error is reported where the parser reaches it, in place of
// what the parser makes of it, and one past a syntax error is never reached.
func TestParseReportsTheFirstError(t *testing.T) {
	for src, want := range map[string]string{
		"select @;":                          `scsql: 1:8: unexpected character '@'`,
		"select x from integer x where x @;": `scsql: 1:33: unexpected character '@'`,
		"1 + @":                              `scsql: 1:5: unexpected character '@'`,
		"select 1; select 'oops":             `scsql: 1:18: unterminated string literal`,
		"select (; @":                        `scsql: 1:9: expected expression, found ';' ";"`,
		"create function f() -> nope as @":   `scsql: 1:24: unknown type "nope"`,
	} {
		if _, _, err := parseAll(src); err == nil || err.Error() != want {
			t.Errorf("parseAll(%q) = %v, want %s", src, err, want)
		}
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	toks, err := lex(`SELECT Extract(B) FROM SP b`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokSelect {
		t.Errorf("SELECT not recognized: %+v", toks[0])
	}
	if toks[5].Kind != TokFrom {
		t.Errorf("FROM not recognized: %+v", toks[5])
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lex("select\n  x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("pos = %v, want 2:3", toks[1].Pos)
	}
}

// TestLexPositionsCountRunes: token texts are cut out of the source by byte
// offset while positions go on counting runes.
func TestLexPositionsCountRunes(t *testing.T) {
	toks, err := lex("'αβ' größe 3.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Token{
		{Kind: TokString, Text: "αβ", Pos: Pos{1, 1}},
		{Kind: TokIdent, Text: "größe", Pos: Pos{1, 6}},
		{Kind: TokNumber, Text: "3.5", Pos: Pos{1, 12}},
		{Kind: TokEOF, Pos: Pos{1, 15}},
	}
	if !slices.Equal(toks, want) {
		t.Errorf("Lex = %v, want %v", toks, want)
	}
}

// TestParseAllocs pins what parsing one of the paper's queries allocates: a
// block per AST node type and list type the statement uses, the Statement
// and parseAll's slice — nothing per node and nothing per token. The parser
// pulls tokens one at a time, every text a slice of the source, and a
// keyword or a builtin's name in upper case is looked up without a
// lower-case copy. Parse allocates what parseAll does for a text it has not
// seen (its cache's map grows by less than an allocation per text) and
// nothing for one it has.
func TestParseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	q6, err := InboundQuery(6, 8, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Query 6 took 74 while every node was an object of its own (75 while
	// Lex built a token slice first; 86 in upper case while keywords were
	// looked up through strings.ToLower; 94 for the whole statement in upper
	// case while every function and type name was lower-cased through
	// strings.ToLower); Figure 5 took 38.
	for _, c := range []struct {
		src string
		pin float64
	}{{q6, 12}, {Figure5Query(300000, 20), 11}} {
		upper := regexp.MustCompile(`\b(select|from|where|and|in|bag|of)\b`).ReplaceAllStringFunc(c.src, strings.ToUpper)
		for _, src := range []string{c.src, upper, strings.ToUpper(c.src)} {
			got := testing.AllocsPerRun(100, func() {
				if _, _, err := parseAll(src); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.pin {
				t.Errorf("parseAll allocated %v times, want at most %v:\n%s", got, c.pin, src)
			}
			unseen := make([]string, 101) // AllocsPerRun's warm-up and 100 runs
			for i := range unseen {
				unseen[i] = src + strings.Repeat(" ", i+1)
			}
			forgetParsed()
			i := 0
			if miss := testing.AllocsPerRun(100, func() { _, _ = Parse(unseen[i]); i++ }); miss != got {
				t.Errorf("Parse of an unseen text allocated %v times, parseAll %v:\n%s", miss, got, src)
			}
			if hit := testing.AllocsPerRun(100, func() { _, _ = Parse(src) }); hit != 0 {
				t.Errorf("Parse of a parsed text allocated %v times, want 0:\n%s", hit, src)
			}
		}
	}
}

// forgetParsed empties Parse's cache.
func forgetParsed() {
	parsed.mu.Lock()
	parsed.m, parsed.bytes = nil, 0
	parsed.mu.Unlock()
}

// TestCensusSizesEverySlab: the census counts exactly what parsing a
// statement takes from each slab — on the paper's corpus and on statements
// that use every node type — so each slab the statement uses is one block,
// filled: a slab left with room was over-counted, and one block more than
// the slabs counted means one was under-counted.
func TestCensusSizesEverySlab(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srcs := []string{
		Figure5Query(3_000_000, 100), MergeQuery([]int{1, 4, 7}, 300_000, 10), GrepQuery("needle", 4), Radix2Def,
		`select n.node from stream n where n in sys_nodes() and n.cluster = 'bg' and n.x = 0;`,
		`select -x * (2 - -x) / 4 + n.y - 1 from integer x, stream n where x in iota(1, 8) and x <> 3 and x >= -2;`,
		`merge({a, b});`,
		`create function two(integer n, bag of sp p, string s) -> stream as select extract(a) from sp a where a=sp(iota(1,n), 'be');`,
		`create function none() -> stream as select count(sys_nodes()) from integer i;`,
	}
	for q := 1; q <= 6; q++ {
		src, err := InboundQuery(q, 4, 300_000, 10)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	for _, src := range srcs {
		counted := &parser{lx: newLexer(src)}
		counted.census()
		blocks := 2.0 // the Statement and parseAll's slice
		if counted.peek().Kind == TokCreate {
			blocks++ // the FuncDef
		}
		slabs := reflect.ValueOf(counted.a)
		for i := range slabs.NumField() {
			if slabs.Field(i).FieldByName("want").Int() > 0 {
				blocks++
			}
		}
		p := &parser{lx: newLexer(src)}
		if _, err := p.statement(); err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		for i := range slabs.NumField() {
			if s := reflect.ValueOf(p.a).Field(i); s.FieldByName("free").Len() > 0 || s.FieldByName("want").Int() > 0 {
				t.Errorf("slab %s over-counted:\n%s", slabs.Type().Field(i).Name, src)
			}
		}
		if got := testing.AllocsPerRun(10, func() { _, _, _ = parseAll(src) }); got != blocks {
			t.Errorf("parseAll allocated %v times, want %v (a slab under-counted):\n%s", got, blocks, src)
		}
	}
}

func TestParseQueryStructure(t *testing.T) {
	stmt, err := Parse(`
select extract(c) from
bag of sp a, sp b, sp c, integer n
where c=sp(extract(b), 'bg')
and   b=sp(count(merge(a)), 'bg')
and   a=spv((select gen_array(3000000,100) from integer i where i in iota(1,n)), 'be', 1)
and   n=4;`)
	if err != nil {
		t.Fatal(err)
	}
	q := stmt.Query
	if q == nil {
		t.Fatal("expected a query statement")
	}
	if len(q.From) != 4 {
		t.Fatalf("decls = %d, want 4", len(q.From))
	}
	if !q.From[0].Bag || q.From[0].Type != DeclSP || q.From[0].Name != "a" {
		t.Errorf("decl 0 = %+v, want bag of sp a", q.From[0])
	}
	if q.From[3].Type != DeclInteger {
		t.Errorf("decl 3 = %+v, want integer n", q.From[3])
	}
	if len(q.Where) != 4 {
		t.Fatalf("conds = %d, want 4", len(q.Where))
	}
	spv, ok := q.Where[2].Expr.(*Call)
	if !ok || spv.Name != "spv" || len(spv.Args) != 3 {
		t.Fatalf("binding a = %v, want spv(…,…,…)", q.Where[2].Expr)
	}
	if _, ok := spv.Args[0].(*SubqueryExpr); !ok {
		t.Errorf("spv arg 0 = %T, want subquery", spv.Args[0])
	}
}

func TestParseCreateFunction(t *testing.T) {
	stmt, err := Parse(Radix2Def)
	if err != nil {
		t.Fatal(err)
	}
	def := stmt.Def
	if def == nil {
		t.Fatal("expected a function definition")
	}
	if def.Name != "radix2" || def.Result != DeclStream {
		t.Errorf("def = %s -> %v", def.Name, def.Result)
	}
	if len(def.Params) != 1 || def.Params[0].Type != DeclString || def.Params[0].Name != "s" {
		t.Errorf("params = %+v", def.Params)
	}
	if def.Body == nil || len(def.Body.From) != 3 {
		t.Errorf("body = %+v", def.Body)
	}
}

func TestParseBareExpressionStatement(t *testing.T) {
	stmt, err := Parse(GrepQuery("x", 3))
	if err != nil {
		t.Fatal(err)
	}
	call, ok := stmt.Query.Select.(*Call)
	if !ok || call.Name != "merge" {
		t.Fatalf("select = %v, want merge(...)", stmt.Query.Select)
	}
}

func TestParseSetLiteral(t *testing.T) {
	stmt, err := Parse(`select radixcombine(merge({a,b})) from sp a, sp b where a=sp(iota(1,2)) and b=sp(iota(3,4));`)
	if err != nil {
		t.Fatal(err)
	}
	rc := stmt.Query.Select.(*Call)
	mg := rc.Args[0].(*Call)
	set, ok := mg.Args[0].(*SetLit)
	if !ok || len(set.Elems) != 2 {
		t.Fatalf("set = %v", mg.Args[0])
	}
}

func TestParseAllMultipleStatements(t *testing.T) {
	stmts, _, err := parseAll(Radix2Def + "\nselect radix2('x');")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 || stmts[0].Def == nil || stmts[1].Query == nil {
		t.Fatalf("stmts = %+v", stmts)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`select`,
		`select x from`,
		`select x from sp`,
		`select x from bag sp a`,
		`select x from floof a where a=1`,
		`select x from sp a where a`,
		`select x from sp a where a ~ 1`,
		`select f( from sp a`,
		`select {} from sp a`,
		`select (x from sp a`,
		`create function f(`,
		`create function f() -> stream`,
		`create function f() -> floof as select 1`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorsArePositioned(t *testing.T) {
	_, err := Parse("select x\nfrom sp a where a ~ 1;")
	if err == nil {
		t.Fatal("expected error")
	}
	var syn *SyntaxError
	if !asSyntax(err, &syn) {
		t.Fatalf("error %T is not a SyntaxError", err)
	}
	if syn.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2 (%v)", syn.Pos.Line, err)
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("message %q should carry the position", err)
	}
}

func asSyntax(err error, out **SyntaxError) bool {
	for err != nil {
		if se, ok := err.(*SyntaxError); ok {
			*out = se
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestASTStringRoundTrip(t *testing.T) {
	// String() output must re-parse to an equivalent query.
	src := `select extract(c) from bag of sp a, sp c where c=sp(count(merge(a)), 'bg', 0) and a=spv((select gen_array(10,2) from integer i where i in iota(1,3)), 'be', urr('be'));`
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := stmt.Query.String()
	stmt2, err := Parse(printed + ";")
	if err != nil {
		t.Fatalf("re-parse of %q: %v", printed, err)
	}
	if stmt2.Query.String() != printed {
		t.Errorf("String not stable:\n first %s\nsecond %s", printed, stmt2.Query.String())
	}
}

// TestMergeQueryListing: two producers give the paper's Figure 8 listing
// character for character; a third is named by the next letter, and the
// merging SP by the one after it.
func TestMergeQueryListing(t *testing.T) {
	for _, c := range []struct {
		producers []int
		want      string
	}{
		{[]int{1, 2}, `
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({a,b})), 'bg', 0)
and   a=sp(gen_array(3000000,100), 'bg', 1)
and   b=sp(gen_array(3000000,100), 'bg', 2);`},
		{[]int{1, 3, 4}, `
select extract(d)
from sp a, sp b, sp c, sp d
where d=sp(count(merge({a,b,c})), 'bg', 0)
and   a=sp(gen_array(3000000,100), 'bg', 1)
and   b=sp(gen_array(3000000,100), 'bg', 3)
and   c=sp(gen_array(3000000,100), 'bg', 4);`},
	} {
		if got := MergeQuery(c.producers, 3_000_000, 100); got != c.want {
			t.Errorf("MergeQuery(%v) =%s\nwant%s", c.producers, got, c.want)
		}
	}
}

func TestCorpusParses(t *testing.T) {
	sources := []string{
		Figure5Query(3_000_000, 100),
		MergeQuery([]int{1, 2}, 3_000_000, 100),
		MergeQuery([]int{1, 4}, 3_000_000, 100),
		GrepQuery("pattern", 1000),
		Radix2Def,
	}
	for q := 1; q <= 6; q++ {
		src, err := InboundQuery(q, 4, 3_000_000, 100)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, src)
	}
	for i, src := range sources {
		if _, err := Parse(src); err != nil {
			t.Errorf("corpus %d does not parse: %v\n%s", i, err, src)
		}
	}
	if _, err := InboundQuery(0, 1, 1, 1); err == nil {
		t.Error("InboundQuery(0) should fail")
	}
}

func TestDeclTypeAndKindStrings(t *testing.T) {
	if DeclSP.String() != "sp" || DeclInteger.String() != "integer" ||
		DeclString.String() != "string" || DeclStream.String() != "stream" ||
		DeclType(0).String() != "unknown" {
		t.Error("DeclType.String misbehaves")
	}
	if TokSelect.String() != "'select'" || Kind(999).String() == "" {
		t.Error("Kind.String misbehaves")
	}
}
