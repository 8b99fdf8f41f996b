package yara

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError reports a rule-compilation failure.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("yara: line %d: %s", e.Line, e.Msg)
}

func errAt(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Compile parses rule source text into a RuleSet.
func Compile(src string) (*RuleSet, error) {
	toks, err := yLex(src)
	if err != nil {
		return nil, err
	}
	p := &yParser{toks: toks}
	rs := &RuleSet{}
	seen := map[string]bool{}
	for p.cur().kind != yEOF {
		line := p.cur().line
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, errAt(line, "duplicate rule %s", r.Name)
		}
		seen[r.Name] = true
		rs.Rules = append(rs.Rules, r)
	}
	if len(rs.Rules) == 0 {
		return nil, &ParseError{Msg: "no rules in source"}
	}
	return rs, nil
}

// MustCompile is Compile for trusted built-in rules; it panics on error.
func MustCompile(src string) *RuleSet {
	rs, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return rs
}

type yTokKind int

const (
	yEOF    yTokKind = iota
	yWord            // keywords, names and hex byte runs
	yVar             // $name
	yString          // "text"
	yPunct           // { } ( ) : =
)

type yTok struct {
	kind yTokKind
	text string
	line int
}

func yLex(src string) ([]yTok, error) {
	var toks []yTok
	line := 1
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '$' || isWordChar(c):
			kind, start := yWord, i
			if c == '$' {
				kind, start = yVar, i+1
			}
			for i = start; i < len(src) && isWordChar(src[i]); i++ {
			}
			if i == start {
				return nil, errAt(line, "empty identifier after $")
			}
			toks = append(toks, yTok{kind: kind, text: src[start:i], line: line})
		case c == '"':
			n := strings.IndexAny(src[i+1:], "\"\\\n")
			if n < 0 || src[i+1+n] == '\n' {
				return nil, errAt(line, "unterminated string")
			}
			if src[i+1+n] == '\\' {
				return nil, errAt(line, "escapes are not supported in strings")
			}
			toks = append(toks, yTok{kind: yString, text: src[i+1 : i+1+n], line: line})
			i += n + 2
		case strings.IndexByte("{}():=", c) >= 0:
			toks = append(toks, yTok{kind: yPunct, text: src[i : i+1], line: line})
			i++
		default:
			return nil, errAt(line, "unexpected character %q", c)
		}
	}
	return append(toks, yTok{kind: yEOF, line: line}), nil
}

func isWordChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

type yParser struct {
	toks  []yTok
	pos   int
	depth int // the parentheses open around the current token
}

// maxNest bounds how deep a condition nests: its open parentheses, and
// the and/or operators on any path down its tree. Parsing recurses once
// per parenthesis and evaluation once per operator, so without the bound
// a deeply nested source overflows the Go stack. The disclosure rules
// nest at most 3 operators deep, inside one level of parentheses.
const maxNest = 200

func (p *yParser) cur() yTok { return p.toks[p.pos] }

// next returns the current token and moves past it; it never moves past
// the end-of-input token.
func (p *yParser) next() yTok {
	t := p.toks[p.pos]
	if t.kind != yEOF {
		p.pos++
	}
	return t
}

func (p *yParser) errf(format string, args ...any) error {
	return errAt(p.cur().line, format, args...)
}

// accept moves past the current token if it is the given word or
// punctuation.
func (p *yParser) accept(kind yTokKind, text string) bool {
	if t := p.cur(); t.kind == kind && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *yParser) expect(kind yTokKind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	return nil
}

func (p *yParser) rule() (*Rule, error) {
	if err := p.expect(yWord, "rule"); err != nil {
		return nil, err
	}
	if p.cur().kind != yWord {
		return nil, p.errf("expected rule name")
	}
	r := &Rule{Name: p.next().text}
	if err := p.expect(yPunct, "{"); err != nil {
		return nil, err
	}
	if p.accept(yWord, "meta") {
		if err := p.expect(yPunct, ":"); err != nil {
			return nil, err
		}
		for t := p.cur(); t.kind == yWord && t.text != "strings" && t.text != "condition"; t = p.cur() {
			p.next()
			if err := p.expect(yPunct, "="); err != nil {
				return nil, err
			}
			if p.cur().kind != yString {
				return nil, p.errf("meta %s: the value must be a quoted string", t.text)
			}
			p.next()
		}
	}
	if p.accept(yWord, "strings") {
		if err := p.expect(yPunct, ":"); err != nil {
			return nil, err
		}
		for p.cur().kind == yVar {
			if err := p.pattern(r); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expect(yWord, "condition"); err != nil {
		return nil, err
	}
	if err := p.expect(yPunct, ":"); err != nil {
		return nil, err
	}
	c, err := p.condOr(r)
	if err != nil {
		return nil, err
	}
	r.cond = c
	if err := p.expect(yPunct, "}"); err != nil {
		return nil, err
	}
	return r, nil
}

// pattern parses one `$id = "text" [nocase]` or `$id = { hex runs }`
// declaration into r.
func (p *yParser) pattern(r *Rule) error {
	id := p.next()
	if r.pattern(id.text) != nil {
		return errAt(id.line, "duplicate string $%s", id.text)
	}
	if err := p.expect(yPunct, "="); err != nil {
		return err
	}
	pat := &Pattern{ID: id.text}
	switch {
	case p.cur().kind == yString:
		pat.Text = []byte(p.next().text)
		pat.Nocase = p.accept(yWord, "nocase")
	case p.accept(yPunct, "{"):
		// Hex runs lex as words: "FF", "00", "DEAD".
		for p.cur().kind == yWord {
			run := p.next()
			if len(run.text)%2 != 0 {
				return errAt(run.line, "odd-length hex run in $%s", id.text)
			}
			for i := 0; i < len(run.text); i += 2 {
				b, err := strconv.ParseUint(run.text[i:i+2], 16, 8)
				if err != nil {
					return errAt(run.line, "bad hex byte %q in $%s", run.text[i:i+2], id.text)
				}
				pat.Text = append(pat.Text, byte(b))
			}
		}
		if err := p.expect(yPunct, "}"); err != nil {
			return err
		}
	default:
		return p.errf("expected string or hex pattern for $%s", id.text)
	}
	if len(pat.Text) == 0 {
		return errAt(id.line, "empty pattern $%s", id.text)
	}
	r.Patterns = append(r.Patterns, pat)
	return nil
}

func (r *Rule) pattern(id string) *Pattern {
	for _, p := range r.Patterns {
		if p.ID == id {
			return p
		}
	}
	return nil
}

func (p *yParser) condOr(r *Rule) (*cond, error) {
	l, err := p.condAnd(r)
	for err == nil && p.accept(yWord, "or") {
		var rhs *cond
		if rhs, err = p.condAnd(r); err == nil {
			l, err = p.join(condOr, l, rhs)
		}
	}
	return l, err
}

func (p *yParser) condAnd(r *Rule) (*cond, error) {
	l, err := p.condAtom(r)
	for err == nil && p.accept(yWord, "and") {
		var rhs *cond
		if rhs, err = p.condAtom(r); err == nil {
			l, err = p.join(condAnd, l, rhs)
		}
	}
	return l, err
}

// join builds the node `l kind r`, which fails once it nests deeper
// than maxNest.
func (p *yParser) join(kind condKind, l, r *cond) (*cond, error) {
	c := &cond{kind: kind, height: 1 + max(l.height, r.height), l: l, r: r}
	if c.height > maxNest {
		return nil, p.errf("condition nests deeper than %d levels", maxNest)
	}
	return c, nil
}

func (p *yParser) condAtom(r *Rule) (*cond, error) {
	t := p.cur()
	switch {
	case p.accept(yPunct, "("):
		if p.depth++; p.depth > maxNest {
			return nil, p.errf("condition nests deeper than %d levels", maxNest)
		}
		c, err := p.condOr(r)
		p.depth--
		if err != nil {
			return nil, err
		}
		return c, p.expect(yPunct, ")")
	case t.kind == yVar:
		p.next()
		pat := r.pattern(t.text)
		if pat == nil {
			return nil, errAt(t.line, "rule %s: undefined string $%s", r.Name, t.text)
		}
		return &cond{kind: condRef, pat: pat}, nil
	case p.accept(yWord, "any"):
		if err := p.expect(yWord, "of"); err != nil {
			return nil, err
		}
		if err := p.expect(yWord, "them"); err != nil {
			return nil, err
		}
		if len(r.Patterns) == 0 {
			return nil, errAt(t.line, "rule %s: 'any of them' with no strings", r.Name)
		}
		return &cond{kind: condAny}, nil
	}
	return nil, p.errf("unexpected %q in condition", t.text)
}
