// Package minilua implements a small Lua-like scripting language with a
// lexer, recursive-descent parser and tree-walking interpreter. It stands
// in for the Lua virtual machine embedded in Flame: module logic ships as
// source strings, is interpreted at run time inside a capability sandbox,
// and can be hot-swapped by C&C updates — the design property the paper
// singles out as what "distinguishes it from typical malware".
//
// Supported language, the subset the Flame modules speak: nil/true/false,
// numbers (float64), strings, tables, named functions with closures;
// local/global variables and multiple assignment; if/elseif/else, numeric
// for, return; operators + - * / % .. == ~= < <= > >= and or not - #;
// table constructors and indexing (t.k, t[k]); the builtins format, find
// and lower. The other Lua keywords stay reserved. Execution is
// fuel-limited and values are capped so hostile or runaway modules
// terminate.
package minilua

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tkEOF tokenKind = iota
	tkName
	tkNumber
	tkString
	tkKeyword
	tkOp
)

type token struct {
	kind tokenKind
	text string
	num  float64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tkEOF:
		return "<eof>"
	case tkNumber:
		return fmt.Sprintf("%g", t.num)
	case tkString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

var keywords = map[string]bool{
	"and": true, "break": true, "do": true, "else": true, "elseif": true,
	"end": true, "false": true, "for": true, "function": true, "if": true,
	"local": true, "nil": true, "not": true, "or": true, "repeat": true,
	"return": true,
	"then":   true, "true": true, "until": true, "while": true, "in": true,
}

// SyntaxError reports a lexing or parsing failure with its source line.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minilua: line %d: %s", e.Line, e.Msg)
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-':
			for i < n && src[i] != '\n' {
				i++
			}
		case isNameStart(c):
			start := i
			for i < n && isNameChar(src[i]) {
				i++
			}
			text := src[start:i]
			kind := tkName
			if keywords[text] {
				kind = tkKeyword
			}
			toks = append(toks, token{kind: kind, text: text, line: line})
		case c >= '0' && c <= '9':
			start := i
			seenDot := false
			for i < n && (src[i] >= '0' && src[i] <= '9' || src[i] == '.' && !seenDot) {
				if src[i] == '.' {
					seenDot = true
				}
				i++
			}
			text := src[start:i]
			var num float64
			if _, err := fmt.Sscanf(text, "%g", &num); err != nil {
				return nil, &SyntaxError{Line: line, Msg: "malformed number " + text}
			}
			toks = append(toks, token{kind: tkNumber, text: text, num: num, line: line})
		case c == '"' || c == '\'':
			quote := c
			i++
			var b strings.Builder
			closed := false
			for i < n {
				ch := src[i]
				if ch == quote {
					closed = true
					i++
					break
				}
				if ch == '\n' {
					return nil, &SyntaxError{Line: line, Msg: "unterminated string"}
				}
				if ch == '\\' && i+1 < n {
					i++
					switch src[i] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					case '\\':
						b.WriteByte('\\')
					case '"':
						b.WriteByte('"')
					case '\'':
						b.WriteByte('\'')
					case '0':
						b.WriteByte(0)
					default:
						return nil, &SyntaxError{Line: line, Msg: fmt.Sprintf("bad escape \\%c", src[i])}
					}
					i++
					continue
				}
				b.WriteByte(ch)
				i++
			}
			if !closed {
				return nil, &SyntaxError{Line: line, Msg: "unterminated string"}
			}
			toks = append(toks, token{kind: tkString, text: b.String(), line: line})
		default:
			op, width := lexOp(src[i:])
			if op == "" {
				return nil, &SyntaxError{Line: line, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			toks = append(toks, token{kind: tkOp, text: op, line: line})
			i += width
		}
	}
	toks = append(toks, token{kind: tkEOF, line: line})
	return toks, nil
}

func lexOp(s string) (string, int) {
	two := ""
	if len(s) >= 2 {
		two = s[:2]
	}
	switch two {
	case "==", "~=", "<=", ">=", "..":
		return two, 2
	}
	switch s[0] {
	case '+', '-', '*', '/', '%', '<', '>', '=', '(', ')', '{', '}', '[', ']', ',', ';', '.', '#', ':':
		return s[:1], 1
	}
	return "", 0
}

func isNameStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9'
}
