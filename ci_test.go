package scsq

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameTests: every alternative of a -run, -fuzz or -bench
// pattern in the CI workflow matches at least one Test, Fuzz or Benchmark
// function of the packages its go test names. A renamed or deleted test
// otherwise leaves a step that runs nothing and still passes. '^$', which
// runs no test on purpose, is exempt.
func TestCIPatternsNameTests(t *testing.T) {
	text, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(text), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var patterns, pkgs []string
		words := shellWords(cmd)
		for i := 0; i < len(words); i++ {
			w := words[i]
			switch {
			case w == "-run" || w == "-fuzz" || w == "-bench":
				if i+1 < len(words) {
					patterns = append(patterns, words[i+1])
					i++
				}
			case strings.HasPrefix(w, "-run=") || strings.HasPrefix(w, "-fuzz=") || strings.HasPrefix(w, "-bench="):
				patterns = append(patterns, w[strings.IndexByte(w, '=')+1:])
			case w == "." || strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			}
		}
		var funcs []string
		for _, pkg := range pkgs {
			funcs = append(funcs, testFuncs(t, pkg)...)
		}
		for _, p := range patterns {
			if p == "^$" {
				continue
			}
			for _, alt := range patternAlternatives(p) {
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %q: %v", n+1, alt, err)
					continue
				}
				if !matchesAny(re, funcs) {
					t.Errorf("ci.yml:%d: %q (of %q) matches no test in %v", n+1, alt, p, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test pattern in ci.yml")
	}
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// testFuncs lists the Test, Fuzz and Benchmark functions of a go test
// package argument: a directory, or a directory tree ending in "/...".
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dir, tree := strings.CutSuffix(pkg, "/...")
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	err := filepath.WalkDir(filepath.Clean(dir), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != filepath.Clean(dir) && (!tree || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("package %s: %v", pkg, err)
	}
	if len(names) == 0 {
		t.Errorf("package %s has no test function", pkg)
	}
	return names
}

// patternAlternatives returns the alternatives of a go test pattern's first
// level (what names a top-level function; the levels below name subtests),
// every '|' multiplied out: 'A(B|C)/x|D' is AB, AC and D.
func patternAlternatives(p string) []string {
	depth := 0
	for i, r := range p {
		if r == '(' || r == '[' {
			depth++
		} else if r == ')' || r == ']' {
			depth--
		} else if r == '/' && depth == 0 {
			p = p[:i]
			break
		}
	}
	var alts []string
	for _, part := range splitTop(p) {
		alts = append(alts, expandGroups(part)...)
	}
	return alts
}

// splitTop splits p at every '|' outside parentheses.
func splitTop(p string) []string {
	var parts []string
	depth, from := 0, 0
	for i, r := range p {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				parts = append(parts, p[from:i])
				from = i + 1
			}
		}
	}
	return append(parts, p[from:])
}

// expandGroups multiplies out the parenthesized alternatives of s.
func expandGroups(s string) []string {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return []string{s}
	}
	end, depth := open, 0
	for ; end < len(s); end++ {
		if s[end] == '(' {
			depth++
		} else if s[end] == ')' {
			depth--
		}
		if depth == 0 {
			break
		}
	}
	var out []string
	for _, inner := range patternAlternatives(s[open+1 : end]) {
		for _, rest := range expandGroups(s[end+1:]) {
			out = append(out, s[:open]+inner+rest)
		}
	}
	return out
}

// shellWords splits a shell command line into words, removing the quotes
// around single- and double-quoted ones.
func shellWords(line string) []string {
	var words []string
	var word strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				word.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}
