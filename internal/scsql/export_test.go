package scsql

import "fmt"

// Hooks into Parse's cache for the external tests.

// UncachedParse is parseAll: every call parses anew.
func UncachedParse(src string) ([]*Statement, error) {
	stmts, _, err := parseAll(src)
	return stmts, err
}

const ParseCacheBytes = parseCacheBytes

// ParseCacheHolds reports whether Parse's cache holds src.
func ParseCacheHolds(src string) bool {
	parsed.mu.Lock()
	defer parsed.mu.Unlock()
	_, ok := parsed.m[src]
	return ok
}

// StatementText renders a statement: a query as Query.String, a definition
// as its name, parameters, result type and body.
func StatementText(s *Statement) string {
	if d := s.Def; d != nil {
		return fmt.Sprintf("create %s %v %v %s", d.Name, d.Params, d.Result, d.Body)
	}
	return s.Query.String()
}
