package minilua

import (
	"errors"
	"fmt"
)

// RuntimeError reports an execution failure with the source line.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("minilua: runtime error at line %d: %s", e.Line, e.Msg)
}

// ErrFuelExhausted aborts scripts that exceed their execution budget.
var ErrFuelExhausted = errors.New("minilua: fuel exhausted")

// env is a lexical scope.
type env struct {
	vars   map[string]Value
	parent *env
}

func newEnv(parent *env) *env {
	return &env{vars: make(map[string]Value), parent: parent}
}

func (e *env) lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// setExisting assigns to the nearest scope declaring name; reports whether
// one was found.
func (e *env) setExisting(name string, v Value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

func (e *env) root() *env {
	s := e
	for s.parent != nil {
		s = s.parent
	}
	return s
}

// Interp executes chunks with a fuel budget and a capability environment.
type Interp struct {
	globals *env
	fuel    int
	depth   int // running chunks and Lua calls
}

// DefaultFuel is the execution budget of each top-level Run, RunSource
// or Call: a step per statement, loop iteration and call, one per 64
// bytes a string operation builds, and one per key a table store walks
// to move the border. A builtin that
// calls back in spends the budget of the entry that called it.
const DefaultFuel = 1 << 20

// Fuel bounds work, not how deep calls nest or how large one value
// grows, so these bound the rest; past any of them a script fails with a
// *RuntimeError. maxDepth caps nested Lua calls (each nests Go frames),
// maxString the bytes of a string that `..` or format builds, and
// maxEntries the entries a script stores into one table. Tables that
// host bindings build in Go are not capped.
const (
	maxDepth   = 200
	maxString  = 1 << 20
	maxEntries = 1 << 16
)

// NewInterp returns an interpreter with the standard library installed.
func NewInterp() *Interp {
	in := &Interp{globals: newEnv(nil)}
	installStdlib(in)
	return in
}

// SetGlobal binds a global variable (the capability-injection point: host
// APIs are exposed to modules as Builtin globals).
func (in *Interp) SetGlobal(name string, v Value) {
	in.globals.vars[name] = v
}

// Global reads a global variable.
func (in *Interp) Global(name string) Value {
	v, _ := in.globals.lookup(name)
	return v
}

// Register binds a Go function as a global builtin.
func (in *Interp) Register(name string, fn func(in *Interp, args []Value) (Value, error)) {
	in.SetGlobal(name, &Builtin{Name: name, Fn: fn})
}

// Run executes a chunk in the global scope, returning the chunk's return
// value (nil if it does not return).
func (in *Interp) Run(c *Chunk) (Value, error) {
	in.refuel()
	in.depth++
	ret, _, err := in.execBlock(c.body, newEnv(in.globals))
	in.depth--
	return ret, err
}

// RunSource parses and executes src.
func (in *Interp) RunSource(src string) (Value, error) {
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return in.Run(c)
}

// Call invokes a script function or builtin from Go.
func (in *Interp) Call(fn Value, args ...Value) (Value, error) {
	in.refuel()
	return in.call(fn, args, 0)
}

// refuel gives an entry from Go that no running chunk or call encloses
// its own DefaultFuel.
func (in *Interp) refuel() {
	if in.depth == 0 {
		in.fuel = DefaultFuel
	}
}

// burn charges a step of fuel at line, plus a step per 64 bytes of the
// string an operation builds. Without the size charge, a loop that
// appends a byte a step copies about 125 GB before its fuel runs out.
func (in *Interp) burn(line, size int) error {
	in.fuel -= 1 + size/64
	if in.fuel < 0 {
		return fmt.Errorf("%w (line %d)", ErrFuelExhausted, line)
	}
	return nil
}

// execBlock runs body and reports whether a return statement ended it,
// with the returned value.
func (in *Interp) execBlock(body []stmt, e *env) (Value, bool, error) {
	for _, s := range body {
		ret, returned, err := in.execStmt(s, e)
		if err != nil || returned {
			return ret, returned, err
		}
	}
	return nil, false, nil
}

func (in *Interp) execStmt(s stmt, e *env) (Value, bool, error) {
	switch st := s.(type) {
	case *localStmt:
		if err := in.burn(st.line, 0); err != nil {
			return nil, false, err
		}
		vals := make([]Value, len(st.names))
		for i := range st.names {
			if i < len(st.exprs) {
				v, err := in.eval(st.exprs[i], e)
				if err != nil {
					return nil, false, err
				}
				vals[i] = v
			}
		}
		for i, name := range st.names {
			e.vars[name] = vals[i]
		}
		return nil, false, nil

	case *assignStmt:
		if err := in.burn(st.line, 0); err != nil {
			return nil, false, err
		}
		vals := make([]Value, len(st.targets))
		for i := range st.targets {
			if i < len(st.exprs) {
				v, err := in.eval(st.exprs[i], e)
				if err != nil {
					return nil, false, err
				}
				vals[i] = v
			}
		}
		for i, tgt := range st.targets {
			if err := in.assign(tgt, vals[i], e); err != nil {
				return nil, false, err
			}
		}
		return nil, false, nil

	case *ifStmt:
		if err := in.burn(st.line, 0); err != nil {
			return nil, false, err
		}
		for i, cond := range st.conds {
			v, err := in.eval(cond, e)
			if err != nil {
				return nil, false, err
			}
			if Truthy(v) {
				return in.execBlock(st.blocks[i], newEnv(e))
			}
		}
		if st.els != nil {
			return in.execBlock(st.els, newEnv(e))
		}
		return nil, false, nil

	case *numForStmt:
		start, err := in.evalNumber(st.startE, e, st.line)
		if err != nil {
			return nil, false, err
		}
		limit, err := in.evalNumber(st.limitE, e, st.line)
		if err != nil {
			return nil, false, err
		}
		step := 1.0
		if st.stepE != nil {
			step, err = in.evalNumber(st.stepE, e, st.line)
			if err != nil {
				return nil, false, err
			}
		}
		if step == 0 {
			return nil, false, &RuntimeError{Line: st.line, Msg: "for step is zero"}
		}
		for i := start; (step > 0 && i <= limit) || (step < 0 && i >= limit); i += step {
			if err := in.burn(st.line, 0); err != nil {
				return nil, false, err
			}
			scope := newEnv(e)
			scope.vars[st.varName] = i
			ret, returned, err := in.execBlock(st.body, scope)
			if err != nil || returned {
				return ret, returned, err
			}
		}
		return nil, false, nil

	case *funcStmt:
		fn := &Function{name: st.name, params: st.params, body: st.body, env: e}
		if !e.setExisting(st.name, fn) {
			e.root().vars[st.name] = fn
		}
		return nil, false, nil

	case *returnStmt:
		if err := in.burn(st.line, 0); err != nil {
			return nil, false, err
		}
		if st.e == nil {
			return nil, true, nil
		}
		v, err := in.eval(st.e, e)
		if err != nil {
			return nil, false, err
		}
		return v, true, nil

	case *exprStmt:
		if err := in.burn(st.line, 0); err != nil {
			return nil, false, err
		}
		_, err := in.eval(st.e, e)
		return nil, false, err

	default:
		return nil, false, fmt.Errorf("minilua: unknown statement %T", s)
	}
}

func (in *Interp) assign(tgt expr, v Value, e *env) error {
	switch t := tgt.(type) {
	case *nameExpr:
		if !e.setExisting(t.name, v) {
			e.root().vars[t.name] = v
		}
		return nil
	case *indexExpr:
		obj, err := in.eval(t.obj, e)
		if err != nil {
			return err
		}
		tbl, ok := obj.(*Table)
		if !ok {
			return &RuntimeError{Line: t.line, Msg: "cannot index " + TypeName(obj)}
		}
		key, err := in.eval(t.key, e)
		if err != nil {
			return err
		}
		if key == nil {
			return &RuntimeError{Line: t.line, Msg: "table index is nil"}
		}
		if v != nil && tbl.Size() >= maxEntries && tbl.Get(key) == nil {
			return &RuntimeError{Line: t.line, Msg: fmt.Sprintf("a table holds at most %d entries", maxEntries)}
		}
		return in.set(t.line, tbl, key, v)
	default:
		return fmt.Errorf("minilua: cannot assign to %T", tgt)
	}
}

// set stores v under key in tbl for a script at line. A store that
// moves the border past the key it writes walks the keys stored beyond
// it, and pays a step for each: otherwise a script that cuts a full
// table's border and restores it would rescan 65,535 keys for three
// steps. A step per 64 keys, the price of string bytes, would still let
// one such loop make about 58 million map lookups.
func (in *Interp) set(line int, tbl *Table, key, v Value) error {
	n := tbl.Len()
	tbl.Set(key, v)
	if walked := tbl.Len() - n - 1; walked > 0 {
		in.fuel -= walked
		return in.burn(line, 0)
	}
	return nil
}

func (in *Interp) evalNumber(ex expr, e *env, line int) (float64, error) {
	v, err := in.eval(ex, e)
	if err != nil {
		return 0, err
	}
	n, ok := v.(float64)
	if !ok {
		return 0, &RuntimeError{Line: line, Msg: "expected number, got " + TypeName(v)}
	}
	return n, nil
}

func (in *Interp) eval(ex expr, e *env) (Value, error) {
	switch x := ex.(type) {
	case *nilExpr:
		return nil, nil
	case *boolExpr:
		return x.v, nil
	case *numberExpr:
		return x.v, nil
	case *stringExpr:
		return x.v, nil
	case *nameExpr:
		v, _ := e.lookup(x.name)
		return v, nil
	case *unExpr:
		return in.evalUnary(x, e)
	case *binExpr:
		return in.evalBinary(x, e)
	case *indexExpr:
		obj, err := in.eval(x.obj, e)
		if err != nil {
			return nil, err
		}
		tbl, ok := obj.(*Table)
		if !ok {
			return nil, &RuntimeError{Line: x.line, Msg: "cannot index " + TypeName(obj)}
		}
		key, err := in.eval(x.key, e)
		if err != nil {
			return nil, err
		}
		return tbl.Get(key), nil
	case *callExpr:
		if err := in.burn(x.line, 0); err != nil {
			return nil, err
		}
		fn, err := in.eval(x.fn, e)
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(x.args))
		for i, a := range x.args {
			args[i], err = in.eval(a, e)
			if err != nil {
				return nil, err
			}
		}
		return in.call(fn, args, x.line)
	case *tableExpr:
		t := NewTable()
		for _, ve := range x.arr {
			v, err := in.eval(ve, e)
			if err != nil {
				return nil, err
			}
			t.Append(v)
		}
		for i := range x.keys {
			k, err := in.eval(x.keys[i], e)
			if err != nil {
				return nil, err
			}
			v, err := in.eval(x.vals[i], e)
			if err != nil {
				return nil, err
			}
			if k == nil {
				return nil, &RuntimeError{Line: x.line, Msg: "table index is nil"}
			}
			if err := in.set(x.line, t, k, v); err != nil {
				return nil, err
			}
		}
		return t, nil
	default:
		return nil, fmt.Errorf("minilua: unknown expression %T", ex)
	}
}

func (in *Interp) call(fn Value, args []Value, line int) (Value, error) {
	switch f := fn.(type) {
	case *Builtin:
		return f.Fn(in, args)
	case *Function:
		if in.depth >= maxDepth {
			return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("calls nest deeper than %d", maxDepth)}
		}
		scope := newEnv(f.env)
		for i, p := range f.params {
			if i < len(args) {
				scope.vars[p] = args[i]
			} else {
				scope.vars[p] = nil
			}
		}
		in.depth++
		ret, _, err := in.execBlock(f.body, scope)
		in.depth--
		return ret, err
	default:
		return nil, &RuntimeError{Line: line, Msg: "attempt to call a " + TypeName(fn) + " value"}
	}
}

func (in *Interp) evalUnary(x *unExpr, e *env) (Value, error) {
	v, err := in.eval(x.e, e)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case "-":
		n, ok := v.(float64)
		if !ok {
			return nil, &RuntimeError{Line: x.line, Msg: "attempt to negate a " + TypeName(v)}
		}
		return -n, nil
	case "not":
		return !Truthy(v), nil
	case "#":
		switch vv := v.(type) {
		case string:
			return float64(len(vv)), nil
		case *Table:
			return float64(vv.Len()), in.burn(x.line, 0)
		default:
			return nil, &RuntimeError{Line: x.line, Msg: "attempt to get length of a " + TypeName(v)}
		}
	default:
		return nil, &RuntimeError{Line: x.line, Msg: "unknown unary operator " + x.op}
	}
}

func (in *Interp) evalBinary(x *binExpr, e *env) (Value, error) {
	// Short-circuit logic.
	if x.op == "and" || x.op == "or" {
		l, err := in.eval(x.l, e)
		if err != nil {
			return nil, err
		}
		if x.op == "and" {
			if !Truthy(l) {
				return l, nil
			}
			return in.eval(x.r, e)
		}
		if Truthy(l) {
			return l, nil
		}
		return in.eval(x.r, e)
	}
	l, err := in.eval(x.l, e)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(x.r, e)
	if err != nil {
		return nil, err
	}
	switch x.op {
	case "==":
		return valuesEqual(l, r), nil
	case "~=":
		return !valuesEqual(l, r), nil
	case "..":
		ls, lok := concatOperand(l)
		rs, rok := concatOperand(r)
		if !lok || !rok {
			return nil, &RuntimeError{Line: x.line, Msg: "attempt to concatenate a " + TypeName(pickBad(l, r, lok))}
		}
		if err := in.buildString(x.line, len(ls)+len(rs)); err != nil {
			return nil, err
		}
		return ls + rs, nil
	}
	// Numeric and comparison operators.
	switch x.op {
	case "<", "<=", ">", ">=":
		if ls, ok := l.(string); ok {
			rs, ok2 := r.(string)
			if !ok2 {
				return nil, &RuntimeError{Line: x.line, Msg: "attempt to compare string with " + TypeName(r)}
			}
			return compareStrings(x.op, ls, rs), nil
		}
	}
	ln, lok := l.(float64)
	rn, rok := r.(float64)
	if !lok || !rok {
		return nil, &RuntimeError{Line: x.line, Msg: fmt.Sprintf("attempt to perform arithmetic (%s) on a %s", x.op, TypeName(pickBad(l, r, lok)))}
	}
	switch x.op {
	case "+":
		return ln + rn, nil
	case "-":
		return ln - rn, nil
	case "*":
		return ln * rn, nil
	case "/":
		if rn == 0 {
			return nil, &RuntimeError{Line: x.line, Msg: "division by zero"}
		}
		return ln / rn, nil
	case "%":
		if rn == 0 {
			return nil, &RuntimeError{Line: x.line, Msg: "modulo by zero"}
		}
		m := ln - rn*float64(int64(ln/rn))
		return m, nil
	case "<":
		return ln < rn, nil
	case "<=":
		return ln <= rn, nil
	case ">":
		return ln > rn, nil
	case ">=":
		return ln >= rn, nil
	default:
		return nil, &RuntimeError{Line: x.line, Msg: "unknown operator " + x.op}
	}
}

// buildString charges a string of n bytes that `..` or format builds.
func (in *Interp) buildString(line, n int) error {
	if n > maxString {
		return &RuntimeError{Line: line, Msg: fmt.Sprintf("string longer than %d bytes", maxString)}
	}
	return in.burn(line, n)
}

func pickBad(l, r Value, lok bool) Value {
	if !lok {
		return l
	}
	return r
}

func concatOperand(v Value) (string, bool) {
	switch x := v.(type) {
	case string:
		return x, true
	case float64:
		return ToString(x), true
	default:
		return "", false
	}
}

func compareStrings(op, l, r string) bool {
	switch op {
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	default:
		return l >= r
	}
}

func valuesEqual(l, r Value) bool {
	if l == nil && r == nil {
		return true
	}
	switch a := l.(type) {
	case float64:
		b, ok := r.(float64)
		return ok && a == b
	case string:
		b, ok := r.(string)
		return ok && a == b
	case bool:
		b, ok := r.(bool)
		return ok && a == b
	default:
		return l == r // pointer identity for tables/functions
	}
}
