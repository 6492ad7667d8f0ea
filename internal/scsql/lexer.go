package scsql

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

var keywords = map[string]Kind{
	"select":   TokSelect,
	"from":     TokFrom,
	"where":    TokWhere,
	"and":      TokAnd,
	"in":       TokIn,
	"create":   TokCreate,
	"function": TokFunction,
	"as":       TokAs,
	"bag":      TokBag,
	"of":       TokOf,
}

// keyword looks word up among the keywords, folded to lower case on the
// stack: they are ASCII letters, which b|0x20 folds, and no other byte of a
// word folds to one (nor does strings.ToLower fold another rune to theirs).
func keyword(word string) (Kind, bool) {
	var buf [8]byte // the longest keyword, "function"
	if len(word) > len(buf) {
		return 0, false
	}
	for i := range len(word) {
		buf[i] = word[i] | 0x20
	}
	k, ok := keywords[string(buf[:len(word)])]
	return k, ok
}

// builtins are the names of the builtin functions and declaration types.
var builtins = strings.Fields(`extract merge count sum avg min max streamof fft odd even
	gen_array iota grep receiver limit radixcombine winagg sp spv urr inpset psetrr filename
	integer string charstring stream`)

// lower is strings.ToLower for a name, allocating nothing for one in lower
// case or one that folds to a builtin's (folded on the stack, it is that).
func lower(name string) string {
	var buf [16]byte
	if b := buf[:min(len(name), len(buf))]; len(name) == len(b) {
		for i := range b {
			if b[i] = name[i]; 'A' <= b[i] && b[i] <= 'Z' {
				b[i] += 'a' - 'A'
			}
		}
		if i := slices.Index(builtins, string(b)); i >= 0 {
			return builtins[i]
		}
	}
	return strings.ToLower(name)
}

// lexer cuts SCSQL source text into tokens, one per call of next, as the
// parser asks for them. Comments run from "--" to end of line. Token texts
// are slices of src; positions count runes.
type lexer struct {
	src       string
	i         int // byte offset of the next rune
	line, col int
	// err is the first lexical error; next returns end of input from there.
	err error
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

func (lx *lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *lexer) advance() rune {
	r, size := utf8.DecodeRuneInString(lx.src[lx.i:])
	lx.i += size
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *lexer) peek() rune {
	r, _ := utf8.DecodeRuneInString(lx.src[lx.i:])
	return r
}

func (lx *lexer) peek2() rune {
	_, size := utf8.DecodeRuneInString(lx.src[lx.i:])
	r, _ := utf8.DecodeRuneInString(lx.src[lx.i+size:])
	return r
}

// punct is the kind of each one-rune token, indexed by its ASCII code.
var punct = [utf8.RuneSelf]Kind{
	'<': TokLess, '>': TokGreater, '+': TokPlus, '-': TokMinus, '*': TokStar,
	'/': TokSlash, '(': TokLParen, ')': TokRParen, '{': TokLBrace, '}': TokRBrace,
	'.': TokDot, ',': TokComma, ';': TokSemicolon, '=': TokEquals,
}

// twoRune is the kind of each two-rune token.
var twoRune = map[string]Kind{"->": TokArrow, "<=": TokLessEq, "<>": TokNotEq, ">=": TokGreaterEq}

// next returns the next token: TokEOF at the end of the source, and from the
// first lexical error on, which it records in lx.err.
func (lx *lexer) next() Token {
	src := lx.src
	for lx.err == nil && lx.i < len(src) {
		start, from := lx.pos(), lx.i
		r := lx.peek()
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '-' && lx.peek2() == '-':
			for lx.i < len(src) && lx.peek() != '\n' {
				lx.advance()
			}
		case (r == '-' || r == '<' || r == '>') && twoRune[src[from:min(from+2, len(src))]] != 0:
			lx.advance()
			lx.advance()
			return Token{Kind: twoRune[src[from:lx.i]], Text: src[from:lx.i], Pos: start}
		case r < utf8.RuneSelf && punct[r] != 0:
			lx.advance()
			return Token{Kind: punct[r], Text: src[from:lx.i], Pos: start}
		case r == '\'' || r == '"':
			quote := lx.advance()
			from = lx.i
			for lx.i < len(src) {
				if lx.advance() == quote {
					return Token{Kind: TokString, Text: src[from : lx.i-1], Pos: start}
				}
			}
			lx.err = errorfAt(start, "unterminated string literal")
		case unicode.IsDigit(r):
			for lx.i < len(src) && (unicode.IsDigit(lx.peek()) || lx.peek() == '.') {
				lx.advance()
			}
			return Token{Kind: TokNumber, Text: src[from:lx.i], Pos: start}
		case unicode.IsLetter(r) || r == '_':
			for lx.i < len(src) && (unicode.IsLetter(lx.peek()) || unicode.IsDigit(lx.peek()) || lx.peek() == '_') {
				lx.advance()
			}
			word := src[from:lx.i]
			if k, ok := keyword(word); ok {
				return Token{Kind: k, Text: word, Pos: start}
			}
			return Token{Kind: TokIdent, Text: word, Pos: start}
		default:
			lx.err = errorfAt(start, "unexpected character %q", r)
		}
	}
	if lx.err != nil {
		return Token{Kind: TokEOF, Pos: lx.err.(*SyntaxError).Pos}
	}
	return Token{Kind: TokEOF, Pos: lx.pos()}
}
