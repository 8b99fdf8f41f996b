package minilua

import "fmt"

// Parse compiles source into a chunk (a statement block) ready for
// execution.
func Parse(src string) (*Chunk, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tkEOF {
		return nil, p.errf("unexpected %s after chunk", p.cur())
	}
	return &Chunk{body: body}, nil
}

// Chunk is a parsed program.
type Chunk struct {
	body []stmt
}

type parser struct {
	toks []token
	pos  int
	// depth is the nesting level being parsed, and peak the deepest
	// level that the nodes of the innermost open expression or chain
	// reach (see maxNest).
	depth, peak int
}

// maxNest bounds how deep a chunk's syntax tree may nest, as Lua's own
// parser stops at 200 C levels. Parsing, and running the tree later,
// recurse once per level, so without the bound a deeply nested source
// overflows the Go stack. Every block and every expression (an operand,
// a parenthesised expression, a call argument, an index key, a table
// entry) opens a level, and each link of a left-associative operator or
// suffix chain pushes the chain built so far one level down. The Flame
// module sources nest at most 7 levels.
const maxNest = 200

// nest opens one nesting level and starts a chain in it; unnest, given
// the enclosing peak nest returns, closes it.
func (p *parser) nest() (int, error) {
	p.depth++
	outer := p.chain()
	return outer, p.reach(p.depth)
}

func (p *parser) unnest(outer int) {
	p.unchain(outer)
	p.depth--
}

// reach records that the nodes being parsed reach level d.
func (p *parser) reach(d int) error {
	p.peak = max(p.peak, d)
	if p.peak > maxNest {
		return p.errf("nesting deeper than %d levels", maxNest)
	}
	return nil
}

// chain starts measuring the nodes of a chain rooted at the current
// level and returns the enclosing peak, which unchain folds theirs into.
func (p *parser) chain() int {
	outer := p.peak
	p.peak = p.depth
	return outer
}

func (p *parser) unchain(outer int) { p.peak = max(outer, p.peak) }

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.cur().line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptOp(op string) bool {
	if p.cur().kind == tkOp && p.cur().text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tkKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %s", op, p.cur())
	}
	return nil
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %q, found %s", kw, p.cur())
	}
	return nil
}

func (p *parser) expectName() (string, error) {
	if p.cur().kind != tkName {
		return "", p.errf("expected name, found %s", p.cur())
	}
	return p.next().text, nil
}

// blockEnd reports whether the current token terminates a block.
func (p *parser) blockEnd() bool {
	t := p.cur()
	if t.kind == tkEOF {
		return true
	}
	if t.kind != tkKeyword {
		return false
	}
	switch t.text {
	case "end", "else", "elseif":
		return true
	}
	return false
}

func (p *parser) block() ([]stmt, error) {
	outer, err := p.nest()
	defer p.unnest(outer)
	if err != nil {
		return nil, err
	}
	var out []stmt
	for !p.blockEnd() {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
		// A return must be the last statement of a block.
		if _, isReturn := s.(*returnStmt); isReturn {
			break
		}
	}
	return out, nil
}

func (p *parser) statement() (stmt, error) {
	t := p.cur()
	if t.kind == tkOp && t.text == ";" {
		p.pos++
		return nil, nil
	}
	if t.kind == tkKeyword {
		switch t.text {
		case "local":
			return p.localStatement()
		case "if":
			return p.ifStatement()
		case "for":
			return p.forStatement()
		case "function":
			return p.funcStatement()
		case "return":
			p.pos++
			rs := &returnStmt{line: t.line}
			if !p.blockEnd() && !(p.cur().kind == tkOp && p.cur().text == ";") {
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				rs.e = e
			}
			p.acceptOp(";")
			return rs, nil
		}
	}
	return p.exprOrAssign()
}

func (p *parser) localStatement() (stmt, error) {
	line := p.cur().line
	p.pos++ // local
	var names []string
	for {
		name, err := p.expectName()
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		if !p.acceptOp(",") {
			break
		}
	}
	var exprs []expr
	if p.acceptOp("=") {
		var err error
		exprs, err = p.exprList()
		if err != nil {
			return nil, err
		}
	}
	return &localStmt{line: line, names: names, exprs: exprs}, nil
}

func (p *parser) ifStatement() (stmt, error) {
	line := p.cur().line
	p.pos++ // if
	out := &ifStmt{line: line}
	for {
		cond, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		out.conds = append(out.conds, cond)
		out.blocks = append(out.blocks, body)
		if p.acceptKw("elseif") {
			continue
		}
		break
	}
	if p.acceptKw("else") {
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		out.els = els
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) forStatement() (stmt, error) {
	line := p.cur().line
	p.pos++ // for
	first, err := p.expectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	start, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(","); err != nil {
		return nil, err
	}
	limit, err := p.expression()
	if err != nil {
		return nil, err
	}
	var step expr
	if p.acceptOp(",") {
		step, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("do"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return &numForStmt{line: line, varName: first, startE: start, limitE: limit, stepE: step, body: body}, nil
}

func (p *parser) funcStatement() (stmt, error) {
	line := p.cur().line
	p.pos++ // function
	name, err := p.expectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var params []string
	if !p.acceptOp(")") {
		for {
			name, err := p.expectName()
			if err != nil {
				return nil, err
			}
			params = append(params, name)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return &funcStmt{line: line, name: name, params: params, body: body}, nil
}

func (p *parser) exprOrAssign() (stmt, error) {
	line := p.cur().line
	first, err := p.suffixedExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tkOp && (p.cur().text == "=" || p.cur().text == ",") {
		targets := []expr{first}
		for p.acceptOp(",") {
			e, err := p.suffixedExpr()
			if err != nil {
				return nil, err
			}
			targets = append(targets, e)
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		exprs, err := p.exprList()
		if err != nil {
			return nil, err
		}
		for _, tgt := range targets {
			switch tgt.(type) {
			case *nameExpr, *indexExpr:
			default:
				return nil, &SyntaxError{Line: line, Msg: "cannot assign to this expression"}
			}
		}
		return &assignStmt{line: line, targets: targets, exprs: exprs}, nil
	}
	if _, ok := first.(*callExpr); !ok {
		return nil, &SyntaxError{Line: line, Msg: "expression is not a statement"}
	}
	return &exprStmt{line: line, e: first}, nil
}

func (p *parser) exprList() ([]expr, error) {
	var out []expr
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.acceptOp(",") {
			return out, nil
		}
	}
}

// Operator precedence (low to high).
var binPrec = map[string]int{
	"or": 1, "and": 2,
	"<": 3, ">": 3, "<=": 3, ">=": 3, "==": 3, "~=": 3,
	"..": 4,
	"+":  5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

const unaryPrec = 7

func (p *parser) expression() (expr, error) { return p.binExprP(0) }

func (p *parser) binExprP(limit int) (expr, error) {
	outer, err := p.nest()
	defer p.unnest(outer)
	if err != nil {
		return nil, err
	}
	var left expr
	t := p.cur()
	switch {
	case t.kind == tkOp && (t.text == "-" || t.text == "#"):
		p.pos++
		operand, err2 := p.binExprP(unaryPrec)
		if err2 != nil {
			return nil, err2
		}
		left = &unExpr{line: t.line, op: t.text, e: operand}
	case t.kind == tkKeyword && t.text == "not":
		p.pos++
		operand, err2 := p.binExprP(unaryPrec)
		if err2 != nil {
			return nil, err2
		}
		left = &unExpr{line: t.line, op: "not", e: operand}
	default:
		left, err = p.simpleExpr()
		if err != nil {
			return nil, err
		}
	}
	for {
		t := p.cur()
		var op string
		if t.kind == tkOp {
			op = t.text
		} else if t.kind == tkKeyword && (t.text == "and" || t.text == "or") {
			op = t.text
		} else {
			break
		}
		prec, ok := binPrec[op]
		if !ok || prec <= limit {
			break
		}
		p.pos++
		if err := p.reach(p.peak + 1); err != nil {
			return nil, err
		}
		// ".." is right-associative; others left.
		nextLimit := prec
		if op == ".." {
			nextLimit = prec - 1
		}
		right, err := p.binExprP(nextLimit)
		if err != nil {
			return nil, err
		}
		left = &binExpr{line: t.line, op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) simpleExpr() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tkNumber:
		p.pos++
		return &numberExpr{v: t.num}, nil
	case t.kind == tkString:
		p.pos++
		return &stringExpr{v: t.text}, nil
	case t.kind == tkKeyword && t.text == "nil":
		p.pos++
		return &nilExpr{}, nil
	case t.kind == tkKeyword && t.text == "true":
		p.pos++
		return &boolExpr{v: true}, nil
	case t.kind == tkKeyword && t.text == "false":
		p.pos++
		return &boolExpr{v: false}, nil
	case t.kind == tkOp && t.text == "{":
		return p.tableConstructor()
	default:
		return p.suffixedExpr()
	}
}

func (p *parser) primaryExpr() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tkName:
		p.pos++
		return &nameExpr{line: t.line, name: t.text}, nil
	case t.kind == tkOp && t.text == "(":
		p.pos++
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("unexpected %s", t)
	}
}

func (p *parser) suffixedExpr() (expr, error) {
	defer p.unchain(p.chain())
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tkOp || t.text != "." && t.text != "[" && t.text != "(" {
			return e, nil
		}
		if err := p.reach(p.peak + 1); err != nil {
			return nil, err
		}
		p.pos++
		switch t.text {
		case ".":
			name, err := p.expectName()
			if err != nil {
				return nil, err
			}
			e = &indexExpr{line: t.line, obj: e, key: &stringExpr{v: name}}
		case "[":
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			e = &indexExpr{line: t.line, obj: e, key: key}
		default: // "("
			var args []expr
			if !p.acceptOp(")") {
				args, err = p.exprList()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			e = &callExpr{line: t.line, fn: e, args: args}
		}
	}
}

func (p *parser) tableConstructor() (expr, error) {
	line := p.cur().line
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	out := &tableExpr{line: line}
	for !p.acceptOp("}") {
		t := p.cur()
		switch {
		case t.kind == tkOp && t.text == "[":
			p.pos++
			key, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			out.keys = append(out.keys, key)
			out.vals = append(out.vals, val)
		case t.kind == tkName && p.toks[p.pos+1].kind == tkOp && p.toks[p.pos+1].text == "=":
			p.pos += 2
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			out.keys = append(out.keys, &stringExpr{v: t.text})
			out.vals = append(out.vals, val)
		default:
			val, err := p.expression()
			if err != nil {
				return nil, err
			}
			out.arr = append(out.arr, val)
		}
		if p.acceptOp(",") || p.acceptOp(";") {
			continue
		}
		if err := p.expectOp("}"); err != nil {
			return nil, err
		}
		break
	}
	return out, nil
}
