// Package sql implements the JustQL engine (Section VI): a lexer, a
// recursive-descent parser, an analyzer backed by the meta table, a
// rule-based optimizer (constant folding, predicate pushdown, projection
// pruning), and an executor that lowers spatio-temporal predicates to
// index scans and everything else to DataFrame operators.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp   // punctuation and operators
	tokJSON // balanced {...} blob (after USERDATA / CONFIG)
	tokErr  // a lexical error; see lexer.err
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer tokenizes JustQL on demand: the next token is scanned when the
// parser consumes the current one. Keywords are case-insensitive idents.
// A lexical error is a tokErr token, reported once the parser stops on it.
type lexer struct {
	src string
	pos int   // where scanning resumes: the end of tok
	tok token // the current token
	err error // the lexical error tok stands for, if tok.kind == tokErr
}

func newLexer(src string) *lexer {
	l := &lexer{src: src}
	l.advance()
	return l
}

// ErrSyntax wraps lexical and grammatical errors.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sql: syntax error at offset %d: %s", e.Pos, e.Msg)
}

// fail returns the lexical error the parser stopped on, if it reached
// one, else the parser's own err.
func (l *lexer) fail(err error) error {
	if l.err != nil {
		return l.err
	}
	return err
}

// expectEOF reports anything after the end of what was parsed.
func (l *lexer) expectEOF(msg string) error {
	if t := l.peek(); t.kind != tokEOF {
		return l.fail(&SyntaxError{t.pos, fmt.Sprintf("%s %q", msg, t.text)})
	}
	return nil
}

// advance scans the next token into l.tok, or the error that ends the scan.
func (l *lexer) advance() {
	if err := l.scan(); err != nil {
		l.err, l.tok = err, token{kind: tokErr, pos: err.Pos}
	}
}

func (l *lexer) scan() *SyntaxError {
	s := l.src
	for l.pos < len(s) {
		c := s[l.pos]
		r, rn := firstRune(s[l.pos:])
		start := l.pos
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
			continue
		case c == '-' && l.pos+1 < len(s) && s[l.pos+1] == '-':
			for l.pos < len(s) && s[l.pos] != '\n' {
				l.pos++
			}
			continue
		case c == '{':
			blob, err := l.captureBalanced()
			l.tok = token{tokJSON, blob, start}
			return err
		case c == '\'' || c == '"':
			// Without escapes the string is a slice of the source.
			if n := strings.IndexByte(s[start+1:], c); n >= 0 && strings.IndexByte(s[start+1:start+1+n], '\\') < 0 {
				l.pos = start + n + 2
				l.tok = token{tokString, s[start+1 : start+1+n], start}
				return nil
			}
			l.pos++
			var sb strings.Builder
			for l.pos < len(s) && s[l.pos] != c {
				if s[l.pos] == '\\' && l.pos+1 < len(s) {
					l.pos++
				}
				sb.WriteByte(s[l.pos])
				l.pos++
			}
			if l.pos >= len(s) {
				return &SyntaxError{start, "unterminated string"}
			}
			l.pos++ // closing quote
			l.tok = token{tokString, sb.String(), start}
		case c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(s) && s[l.pos+1] >= '0' && s[l.pos+1] <= '9'):
			for l.pos < len(s) && (isDigit(s[l.pos]) || s[l.pos] == '.' || s[l.pos] == 'e' || s[l.pos] == 'E' ||
				((s[l.pos] == '+' || s[l.pos] == '-') && l.pos > start && (s[l.pos-1] == 'e' || s[l.pos-1] == 'E'))) {
				l.pos++
			}
			l.tok = token{tokNumber, s[start:l.pos], start}
		case isIdentStart(r):
			for l.pos < len(s) {
				r, n := firstRune(s[l.pos:])
				if !isIdentPart(r) {
					break
				}
				l.pos += n
			}
			l.tok = token{tokIdent, s[start:l.pos], start}
		default:
			// Two-char operators first.
			if l.pos+1 < len(s) {
				switch two := s[l.pos : l.pos+2]; two {
				case "<=", ">=", "!=", "<>", "::":
					l.pos += 2
					l.tok = token{tokOp, two, start}
					return nil
				}
			}
			switch c {
			case '(', ')', ',', ';', ':', '=', '<', '>', '+', '-', '*', '/', '.', '|':
				l.pos++
				l.tok = token{tokOp, s[start:l.pos], start}
			default:
				if r == utf8.RuneError && rn == 1 {
					return &SyntaxError{start, fmt.Sprintf("invalid UTF-8 byte %#x", c)}
				}
				return &SyntaxError{start, fmt.Sprintf("unexpected character %q", r)}
			}
		}
		return nil
	}
	l.tok = token{tokEOF, "", len(s)}
	return nil
}

// captureBalanced consumes a balanced {...} blob, respecting quoted
// strings inside.
func (l *lexer) captureBalanced() (string, *SyntaxError) {
	s := l.src
	start := l.pos
	depth := 0
	for l.pos < len(s) {
		switch s[l.pos] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				l.pos++
				return s[start:l.pos], nil
			}
		case '\'', '"':
			quote := s[l.pos]
			l.pos++
			for l.pos < len(s) && s[l.pos] != quote {
				if s[l.pos] == '\\' {
					l.pos++
				}
				l.pos++
			}
		}
		l.pos++
	}
	return "", &SyntaxError{start, "unterminated { ... } block"}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// firstRune returns the rune s starts with and its width: an ASCII byte
// as is, else its UTF-8 decoding (utf8.RuneError, width 1, for an
// invalid byte).
func firstRune(s string) (rune, int) {
	if s[0] < utf8.RuneSelf {
		return rune(s[0]), 1
	}
	return utf8.DecodeRuneInString(s)
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

// peek returns the current token without consuming it.
func (l *lexer) peek() token { return l.tok }

// next consumes and returns the current token, unless it is EOF or tokErr.
func (l *lexer) next() token {
	t := l.tok
	if t.kind != tokEOF && t.kind != tokErr {
		l.advance()
	}
	return t
}

// matchKeyword consumes the token if it is the given keyword
// (case-insensitive).
func (l *lexer) matchKeyword(kw string) bool {
	ok := l.isKeyword(kw)
	if ok {
		l.next()
	}
	return ok
}

// expectKeyword consumes a required keyword.
func (l *lexer) expectKeyword(kw string) error {
	if !l.matchKeyword(kw) {
		t := l.peek()
		return &SyntaxError{t.pos, fmt.Sprintf("expected %s, got %q", kw, t.text)}
	}
	return nil
}

// matchOp consumes the token if it is the given operator.
func (l *lexer) matchOp(op string) bool {
	ok := l.tok.kind == tokOp && l.tok.text == op
	if ok {
		l.next()
	}
	return ok
}

// expectOp consumes a required operator.
func (l *lexer) expectOp(op string) error {
	if !l.matchOp(op) {
		t := l.peek()
		return &SyntaxError{t.pos, fmt.Sprintf("expected %q, got %q", op, t.text)}
	}
	return nil
}

// expectIdent consumes a required identifier.
func (l *lexer) expectIdent() (string, error) {
	t := l.peek()
	if t.kind != tokIdent {
		return "", &SyntaxError{t.pos, fmt.Sprintf("expected identifier, got %q", t.text)}
	}
	l.next()
	return t.text, nil
}

// isKeyword reports whether the current token equals the keyword without
// consuming it. Keywords are ASCII and match ASCII letters of either
// case, and nothing else: an identifier such as ſelect, which equals
// SELECT only under Unicode case folding, is no keyword, as the
// grammar's lower-cased function names are not either.
func (l *lexer) isKeyword(kw string) bool {
	t := l.peek()
	if t.kind != tokIdent || len(t.text) != len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		if lowerASCII(t.text[i]) != lowerASCII(kw[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
