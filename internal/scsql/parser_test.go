package scsql

import (
	"slices"
	"strings"
	"testing"

	"scsq/internal/race"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`select extract(b) from sp a where a = sp('x', 1); -- comment`)
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
	toks, err := Lex(`"double" 'single' ->`)
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
	if _, err := Lex(`'unterminated`); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex(`select @`); err == nil {
		t.Error("stray character should fail")
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	toks, err := Lex(`SELECT Extract(B) FROM SP b`)
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
	toks, err := Lex("select\n  x")
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
	toks, err := Lex("'αβ' größe 3.5")
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

// TestLexAllocs pins what lexing one of the paper's queries allocates: the
// token slice, once, and nothing per token — every text is a slice of the
// source.
func TestLexAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	src, err := InboundQuery(6, 8, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := Lex(src); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("Lex allocated %v times, want at most 1", got)
	}
}

// TestLexTokenSliceFits: the token slice is sized before lexing from what
// the source can hold, not from its length, so comments and whitespace take
// no slots — it is never more than twice the tokens it ends up holding.
func TestLexTokenSliceFits(t *testing.T) {
	q6, err := InboundQuery(6, 8, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"query 6":  q6,
		"figure 5": Figure5Query(300000, 20),
		"comments and whitespace": "-- " + strings.Repeat("a long comment, -- with dashes 'and quotes' ", 200) + "\n" +
			strings.Repeat(" \t\r\n", 500) + "select  x  \n\n\n  from integer x -- trailing " + strings.Repeat("-", 1000) +
			"\nwhere x in iota(1, 10)" + strings.Repeat("\n", 1000) + "and x <= 5;" + strings.Repeat(" ", 4000),
		"operators and numbers": "select 1.5 <= 2.25, 3 <> 4, a -> b, 'x y z', \"q\" from integer x;",
	} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(toks) > 2*len(toks) {
			t.Errorf("%s: %d tokens in a slice of %d", name, len(toks), cap(toks))
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
	stmts, err := ParseAll(Radix2Def + "\nselect radix2('x');")
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

func TestCorpusParses(t *testing.T) {
	sources := []string{
		Figure5Query(3_000_000, 100),
		MergeQuery(1, 2, 3_000_000, 100),
		MergeQuery(1, 4, 3_000_000, 100),
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
