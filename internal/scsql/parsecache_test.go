package scsql_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scsq/internal/scsql"
)

// TestParseCacheSharesImmutableStatements: Parse hands every caller of one
// text the same statement, so nothing may write an AST after parsing. A
// repeated text is one statement, equal to what parseAll makes of it; a text
// that does not parse is refused alike every time and never stored; a text
// the cache cannot take beside what it holds restarts it, and one larger
// than its bound is never stored. Concurrent sessions of the paper's
// statements then leave every shared statement deeply equal to a fresh parse:
// a compile or evaluation step that writes an AST field fails here.
func TestParseCacheSharesImmutableStatements(t *testing.T) {
	q6, err := scsql.InboundQuery(6, 4, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		comprehension = `select x*x from integer x where x in iota(1,8) and x > 5;`
		def           = `create function squares(integer n) -> stream as select x*x from integer x where x in iota(1,n) and x > 1;`
		call          = `select squares(4);`
	)
	sessions := [][]string{{scsql.Figure5Query(30_000, 4)}, {q6}, {comprehension}, {def, call}}
	var srcs []string
	for _, seq := range sessions {
		srcs = append(srcs, seq...)
	}
	parse := func(src string) *scsql.Statement {
		t.Helper()
		stmt, err := scsql.Parse(src)
		if err != nil {
			t.Fatalf("%v:\n%s", err, src)
		}
		return stmt
	}
	fresh := func(src string) *scsql.Statement {
		t.Helper()
		stmts, err := scsql.UncachedParse(src)
		if err != nil || len(stmts) != 1 {
			t.Fatalf("parseAll = %d statements, %v:\n%s", len(stmts), err, src)
		}
		return stmts[0]
	}

	held := map[string]*scsql.Statement{}
	for _, src := range srcs {
		held[src] = parse(src)
		if again := parse(src); again != held[src] {
			t.Errorf("a repeated Parse returned another statement:\n%s", src)
		}
		if got, want := scsql.StatementText(held[src]), scsql.StatementText(fresh(src)); got != want {
			t.Errorf("cached statement reads\n%s\nparseAll's\n%s", got, want)
		}
	}
	for _, bad := range []string{`select (((`, `select 1; select 2;`, `'unterminated`, ``} {
		_, first := scsql.Parse(bad)
		_, again := scsql.Parse(bad)
		if first == nil || again == nil || first.Error() != again.Error() {
			t.Errorf("Parse(%q) = %v, then %v: want one error twice", bad, first, again)
		}
		if scsql.ParseCacheHolds(bad) {
			t.Errorf("the cache holds %q, which does not parse", bad)
		}
	}

	_, s, ev := newSchedEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(sessions))
	for range 8 {
		for _, seq := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, src := range seq {
					q, err := s.Submit(src)
					if err == nil {
						_, err = q.Wait()
					}
					if err != nil {
						errs <- fmt.Errorf("%v:\n%s", err, src)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, src := range srcs {
		if parse(src) != held[src] {
			t.Fatalf("the cache restarted during the sessions:\n%s", src)
		}
		if !reflect.DeepEqual(held[src], fresh(src)) {
			t.Errorf("a shared statement no longer deeply equals a fresh parse of its text after its sessions (positions included):\n%s",
				scsql.StatementText(held[src]))
		}
	}

	// A set of n numbers costs the cache two bytes of text and a number node
	// and a list element of slab per number.
	set := func(n, i int) string { return fmt.Sprintf("select {%s%d};", strings.Repeat("1,", n), i) }
	var last, before string
	for i := 0; i < 1000 && scsql.ParseCacheHolds(comprehension); i++ {
		before, last = last, set(4096, i)
		parse(last)
	}
	if !scsql.ParseCacheHolds(last) || scsql.ParseCacheHolds(before) {
		t.Error("a statement the cache could not take beside what it held did not restart it")
	}
	if parse(comprehension) == held[comprehension] {
		t.Error("a statement from before the restart is still shared")
	}
	res, err := ev.ExecStatement(held[comprehension])
	if err != nil {
		t.Fatal(err)
	}
	els, err := res.Stream.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var got []any
	for _, el := range els {
		got = append(got, el.Value)
	}
	if want := []any{int64(36), int64(49), int64(64)}; !reflect.DeepEqual(got, want) {
		t.Errorf("a statement held across the restart ran to %v, want %v", got, want)
	}
	huge := set(scsql.ParseCacheBytes/16, 0)
	if parse(huge); scsql.ParseCacheHolds(huge) {
		t.Error("a text larger than the cache's bound was stored")
	}
}
