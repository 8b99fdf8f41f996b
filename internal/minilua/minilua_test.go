package minilua

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src string) (Value, *Interp) {
	t.Helper()
	in := NewInterp()
	v, err := in.RunSource(src)
	if err != nil {
		t.Fatalf("RunSource(%q): %v", src, err)
	}
	return v, in
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	in := NewInterp()
	_, err := in.RunSource(src)
	if err == nil {
		t.Fatalf("RunSource(%q) succeeded, want error", src)
	}
	return err
}

func TestArithmetic(t *testing.T) {
	cases := map[string]float64{
		"return 1 + 2":            3,
		"return 10 - 4":           6,
		"return 3 * 7":            21,
		"return 10 / 4":           2.5,
		"return 10 % 3":           1,
		"return -(2 + 3)":         -5,
		"return 2 + 3 * 4":        14,
		"return (2 + 3) * 4":      20,
		"return 1 + 2 - 3 + 4":    4,
		"return 100 / 10 / 2":     5,
		"return 7 % 3 + 10 * 0.5": 6,
	}
	for src, want := range cases {
		v, _ := run(t, src)
		if got, ok := v.(float64); !ok || got != want {
			t.Errorf("%q = %v, want %v", src, v, want)
		}
	}
}

func TestComparisonAndLogic(t *testing.T) {
	cases := map[string]bool{
		"return 1 < 2":                  true,
		"return 2 <= 2":                 true,
		"return 3 > 4":                  false,
		"return 1 == 1":                 true,
		"return 1 ~= 1":                 false,
		`return "a" < "b"`:              true,
		`return "abc" == "abc"`:         true,
		"return true and false":         false,
		"return true or false":          true,
		"return not nil":                true,
		"return nil == nil":             true,
		"return 1 == \"1\"":             false,
		"return (1 < 2) and (3 < 4)":    true,
		"return false or nil == nil":    true,
		"return not (1 > 2) and 5 == 5": true,
	}
	for src, want := range cases {
		v, _ := run(t, src)
		if got, ok := v.(bool); !ok || got != want {
			t.Errorf("%q = %v, want %v", src, v, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// `and` must not evaluate rhs when lhs is false.
	v, _ := run(t, `
		local called = false
		function boom() called = true return 1 end
		local r = false and boom()
		return called
	`)
	if v != false {
		t.Fatalf("and short-circuit broken: %v", v)
	}
	v, _ = run(t, `return 5 or never_called()`)
	if v != 5.0 {
		t.Fatalf("or short-circuit = %v", v)
	}
}

func TestStringsAndConcat(t *testing.T) {
	v, _ := run(t, `return "flame" .. "-" .. 2012`)
	if v != "flame-2012" {
		t.Fatalf("concat = %v", v)
	}
	v, _ = run(t, `return #"beetlejuice"`)
	if v != 11.0 {
		t.Fatalf("len = %v", v)
	}
	v, _ = run(t, `return "tab\tnl\n\"q\""`)
	if v != "tab\tnl\n\"q\"" {
		t.Fatalf("escapes = %q", v)
	}
}

func TestLocalsAndGlobalsScoping(t *testing.T) {
	v, _ := run(t, `
		x = 10            -- global
		local y = 20
		function bump() x = x + 1 end
		bump()
		bump()
		return x + y
	`)
	if v != 32.0 {
		t.Fatalf("got %v", v)
	}
	// Locals shadow globals.
	v, _ = run(t, `
		x = 1
		local x = 2
		return x
	`)
	if v != 2.0 {
		t.Fatalf("shadowing = %v", v)
	}
}

func TestIfElseChain(t *testing.T) {
	src := `
		function classify(n)
			if n < 10 then return "small"
			elseif n < 100 then return "medium"
			elseif n < 1000 then return "large"
			else return "huge" end
		end
		return classify(%s)
	`
	cases := map[string]string{"5": "small", "50": "medium", "500": "large", "5000": "huge"}
	for arg, want := range cases {
		v, _ := run(t, strings.Replace(src, "%s", arg, 1))
		if v != want {
			t.Errorf("classify(%s) = %v, want %s", arg, v, want)
		}
	}
}

func TestNumericFor(t *testing.T) {
	v, _ := run(t, `
		local sum = 0
		for i = 1, 5 do sum = sum + i end
		return sum
	`)
	if v != 15.0 {
		t.Fatalf("sum = %v", v)
	}
	v, _ = run(t, `
		local n = 0
		for i = 10, 1, -2 do n = n + 1 end
		return n
	`)
	if v != 5.0 {
		t.Fatalf("downward for = %v", v)
	}
	if err := runErr(t, `for i = 1, 5, 0 do end`); err == nil {
		t.Fatal("zero step allowed")
	}
}

func TestTablesConstructAndIndex(t *testing.T) {
	v, _ := run(t, `
		local t = {1, 2, 3, name = "euphoria", ["key space"] = 42}
		return t[1] + t[3] + t["key space"]
	`)
	if v != 46.0 {
		t.Fatalf("got %v", v)
	}
	v, _ = run(t, `
		local t = {}
		t.module = "flask"
		t.count = 0
		t.count = t.count + 7
		return t.module .. ":" .. t.count
	`)
	if v != "flask:7" {
		t.Fatalf("got %v", v)
	}
}

func TestNestedTables(t *testing.T) {
	v, _ := run(t, `
		local cfg = {net = {domains = {"a.com", "b.com"}}, depth = 2}
		return cfg.net.domains[2]
	`)
	if v != "b.com" {
		t.Fatalf("got %v", v)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	v, _ := run(t, `
		function fib(n)
			if n < 2 then return n end
			return fib(n - 1) + fib(n - 2)
		end
		return fib(15)
	`)
	if v != 610.0 {
		t.Fatalf("fib = %v", v)
	}
}

func TestClosuresCaptureEnvironment(t *testing.T) {
	v, _ := run(t, `
		function counter()
			local n, tick = 0
			function tick() n = n + 1 return n end
			return tick
		end
		local c1 = counter()
		local c2 = counter()
		c1() c1() c1()
		c2()
		return c1() * 10 + c2()
	`)
	if v != 42.0 {
		t.Fatalf("closures = %v", v)
	}
}

func TestMultipleAssignment(t *testing.T) {
	v, _ := run(t, `
		local a, b = 1, 2
		a, b = b, a
		return a * 10 + b
	`)
	if v != 21.0 {
		t.Fatalf("swap = %v", v)
	}
}

func TestStdlibStringOps(t *testing.T) {
	cases := map[string]Value{
		`return find("mssecmgr.ocx", ".ocx")`:    9.0,
		`return find("abc", "zz")`:               nil,
		`return lower("MUNCH")`:                  "munch",
		`return format("%s=%d", "drives", 3)`:    "drives=3",
		`return format("%f%% %s", 2.5, nil)`:     "2.50% nil",
		`return format("%d files", 41.9) .. "!"`: "41 files!",
	}
	for src, want := range cases {
		v, _ := run(t, src)
		if !valuesEqual(v, want) && !(v == nil && want == nil) {
			t.Errorf("%q = %v, want %v", src, v, want)
		}
	}
}

func TestHostBindings(t *testing.T) {
	in := NewInterp()
	var captured []string
	in.Register("host_list_files", func(_ *Interp, args []Value) (Value, error) {
		files := NewTable()
		for _, f := range []string{"a.docx", "b.pdf", "c.dwg"} {
			files.Append(f)
		}
		return files, nil
	})
	in.Register("host_leak", func(_ *Interp, args []Value) (Value, error) {
		captured = append(captured, ToString(argAt(args, 0)))
		return true, nil
	})
	_, err := in.RunSource(`
		local files = host_list_files()
		for i = 1, #files do
			local f = files[i]
			if find(f, ".docx") or find(f, ".dwg") then
				host_leak(f)
			end
		end
	`)
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if len(captured) != 2 || captured[0] != "a.docx" || captured[1] != "c.dwg" {
		t.Fatalf("captured = %v", captured)
	}
}

func TestFuelExhaustion(t *testing.T) {
	in := NewInterp()
	_, err := in.RunSource(`for i = 1, 2 * 1048576 do end`)
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
}

// TestFuelSurvivesNormalRun: every top-level call starts with its own
// DefaultFuel, so two back-to-back calls that each burn about 60% of it
// both finish, and a call after one that ran dry finishes too.
func TestFuelSurvivesNormalRun(t *testing.T) {
	in := NewInterp()
	if _, err := in.RunSource(`
		function burn(n) local s = 0 for i = 1, n do s = s + i end return s end
	`); err != nil {
		t.Fatal(err)
	}
	burn := in.Global("burn")
	sixty := float64(DefaultFuel) * 0.6 / 2 // each iteration burns a step for the loop and one for the assignment
	for call := 1; call <= 2; call++ {
		if _, err := in.Call(burn, sixty); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}
	if _, err := in.Call(burn, float64(DefaultFuel)); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("a call past the budget: err = %v, want ErrFuelExhausted", err)
	}
	if _, err := in.Call(burn, sixty); err != nil {
		t.Fatalf("a call after the budget ran out: %v", err)
	}
}

// TestBoundsAreRuntimeErrors: what fuel does not bound fails with a
// *RuntimeError. Lua calls nest at most maxDepth deep (each nests Go
// frames, so unbounded self-recursion used to need hundreds of MB of
// stack; 1,000 levels keep this test cheap where the bound is missing),
// `..` and format build at most maxString bytes (25 doublings would
// build 32 MiB), and a script stores at most maxEntries entries into
// one table, though it may still overwrite and delete entries there.
func TestBoundsAreRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		`function f(n) if n == 0 then return 0 end return f(n - 1) end return f(1000)`: "calls nest deeper than 200",
		`s = "x" for i = 1, 25 do s = s .. s end return #s`:                            "string longer than 1048576 bytes",
		`s = "x" for i = 1, 20 do s = s .. s end return format("%s!", s)`:              "string longer than 1048576 bytes",
		`t = {} for i = 1, 65537 do t[i] = i end`:                                      "a table holds at most 65536 entries",
	}
	for src, want := range cases {
		err := runErr(t, src)
		var rt *RuntimeError
		if !errors.As(err, &rt) || rt.Msg != want {
			t.Errorf("%q: err = %v, want a *RuntimeError %q", src, err, want)
		}
	}
	v, _ := run(t, `
		function f(n) if n == 0 then return 0 end return 1 + f(n - 1) end
		s = "x" for i = 1, 20 do s = s .. s end
		t = {} for i = 1, 65536 do t[i] = i end
		t[1] = nil t[1] = 0 t[2] = 0
		return f(150) + #s + t[2]
	`)
	if v != 150.0+(1<<20) {
		t.Fatalf("work inside every bound = %v", v)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []string{
		`return 1 + "x"`,
		`return {} .. "x"`,
		`local t = nil return t.x`,
		`local f = 5 return f()`,
		`return 1 / 0`,
		`return 1 % 0`,
		`return #5`,
		`return -"str"`,
		`local t = {} t[nil] = 1`,
		`undefined_module_fn()`,
		`return 1 < "a"`,
		`return format("%x", 1)`,
		`return find(nil, "a")`,
		`return lower(5)`,
	}
	for _, src := range cases {
		err := runErr(t, src)
		var rt *RuntimeError
		if !errors.As(err, &rt) {
			t.Errorf("%q: err = %T %v, want RuntimeError", src, err, err)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		`return 1 +`,
		`if x then`,
		`local = 5`,
		`function end`,
		`return "unterminated`,
		`x = {1, 2`,
		`while do end`,
		`for i = 1 do end`,
		`1 + 2`, // expression is not a statement
		`@`,
		`return "bad \q escape"`,
	}
	for _, src := range cases {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", src)
			continue
		}
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: err = %T, want SyntaxError", src, err)
		}
	}
}

// TestRemovedFormsAreSyntaxErrors: the language is the subset the Flame
// modules use, so each Lua form outside it fails to parse at its line.
func TestRemovedFormsAreSyntaxErrors(t *testing.T) {
	forms := map[string]string{
		"while":             "while n < 3 do n = n + 1 end",
		"repeat":            "repeat n = n + 1 until n > 3",
		"generic for":       "for k, v in t do n = n + 1 end",
		"break":             "for i = 1, 3 do break end",
		"do block":          "do local x = 1 end",
		"local function":    "local function f() return 1 end",
		"function value":    "f = function() return 1 end",
		"function argument": "g(function() end)",
	}
	for name, form := range forms {
		src := "local n, t = 0, {}\n-- the form\n" + form + "\nreturn n"
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Line != 3 {
			t.Errorf("%s: Parse = %v, want a *SyntaxError at line 3", name, err)
		}
	}
}

// nestedForm is a chunk and what it returns.
type nestedForm struct {
	src  string
	want Value
}

// nestedForms spell, n levels deep, each way a chunk nests, with what
// the chunk returns when n is even.
func nestedForms(n int) map[string]nestedForm {
	lp, rp := strings.Repeat("(", n), strings.Repeat(")", n)
	return map[string]nestedForm{
		"parentheses":    {"return " + lp + "1" + rp, 1.0},
		"unary":          {"return " + strings.Repeat("- ", n) + "1", 1.0},
		"concatenation":  {"return #(" + strings.Repeat(`"a" .. `, n) + `"a")`, float64(n + 1)},
		"addition chain": {"return 1" + strings.Repeat(" + 1", n), float64(n + 1)},
		"tables":         {"return #" + strings.Repeat("{", n) + strings.Repeat("}", n), 1.0},
		"index chain":    {"t = {} t.t = t return t" + strings.Repeat(".t", n) + " == t", true},
		"call arguments": {"function f(x) return x end return " + strings.Repeat("f(", n) + "1" + rp, 1.0},
		"blocks":         {strings.Repeat("if true then ", n) + "return 1 " + strings.Repeat("end ", n), 1.0},
	}
}

// TestNestingBound: parsing and running recurse once per level of a
// chunk's syntax tree, so past maxNest levels each form is a
// *SyntaxError instead of a stack overflow; half as deep, each runs.
func TestNestingBound(t *testing.T) {
	for name, f := range nestedForms(1000) {
		_, err := Parse(f.src)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Line != 1 || !strings.Contains(se.Msg, "nesting deeper than 200") {
			t.Errorf("%s at 1,000 levels: Parse = %v, want a nesting *SyntaxError at line 1", name, err)
		}
	}
	for name, f := range nestedForms(maxNest / 2) {
		if v, _ := run(t, f.src); v != f.want {
			t.Errorf("%s at %d levels = %v, want %v", name, maxNest/2, v, f.want)
		}
	}
}

// TestTableLenMatchesBorderScan checks the border a table keeps against
// a scan of keys 1, 2, … after every store, over random stores, deletes,
// appends and keys outside the array part.
func TestTableLenMatchesBorderScan(t *testing.T) {
	scan := func(tb *Table) int {
		n := 0
		for tb.Get(float64(n+1)) != nil {
			n++
		}
		return n
	}
	others := []Value{0.0, -1.0, 1.5, 2.5, "1", "x", true}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		tb := NewTable()
		for op := 0; op < 200; op++ {
			var key Value = 1 + rng.Intn(24)
			if rng.Intn(5) == 0 {
				key = others[rng.Intn(len(others))]
			}
			var val Value = float64(op)
			switch rng.Intn(6) {
			case 0, 1:
				val = nil
			case 2:
				key = "append"
				tb.Append(val)
			}
			if key != "append" {
				tb.Set(key, val)
			}
			if got, want := tb.Len(), scan(tb); got != want {
				t.Fatalf("trial %d, op %d (key %v, value %v): Len = %d, border scan = %d", trial, op, key, val, got, want)
			}
		}
	}
}

// TestLenFillWithinFuel: # costs one step, so filling a table through
// t[#t+1] is linear and 50,000 entries fit in one DefaultFuel.
func TestLenFillWithinFuel(t *testing.T) {
	if v, _ := run(t, `local t = {} for i = 1, 50000 do t[#t+1] = i end return #t`); v != 50000.0 {
		t.Fatalf("#t after the fill = %v, want 50000", v)
	}
}

// TestBorderWalkCostsFuel: a store that moves the border past keys
// stored beyond it pays a step for each key it walks. Cutting a full
// table's border and restoring it, in a loop or inside one constructor,
// runs out of fuel instead of rescanning the table for a few steps a
// pass, while a fill in reverse order still fits in one DefaultFuel.
func TestBorderWalkCostsFuel(t *testing.T) {
	var ctor strings.Builder
	ctor.WriteString("t = {")
	for i := 2; i <= 1024; i++ {
		fmt.Fprintf(&ctor, "[%d] = 0, ", i)
	}
	ctor.WriteString(strings.Repeat("[1] = 0, [1] = nil, ", 1100) + "}")
	for _, src := range []string{
		`t = {} for i = 1, 65536 do t[i] = i end for i = 1, 1000000000 do t[1] = nil t[1] = 0 end`,
		ctor.String(),
	} {
		if err := runErr(t, src); !errors.Is(err, ErrFuelExhausted) {
			t.Errorf("%.60q: err = %v, want ErrFuelExhausted", src, err)
		}
	}
	if v, _ := run(t, `t = {} for i = 65536, 1, -1 do t[i] = i end return #t`); v != 65536.0 {
		t.Fatalf("#t after a reverse fill = %v, want 65536", v)
	}
}

func TestCommentsIgnored(t *testing.T) {
	v, _ := run(t, `
		-- module header comment
		local x = 1 -- trailing
		-- another
		return x
	`)
	if v != 1.0 {
		t.Fatalf("got %v", v)
	}
}

func TestCallFromGo(t *testing.T) {
	in := NewInterp()
	if _, err := in.RunSource(`function add(a, b) return a + b end`); err != nil {
		t.Fatalf("define: %v", err)
	}
	v, err := in.Call(in.Global("add"), 19.0, 23.0)
	if err != nil || v != 42.0 {
		t.Fatalf("Call = %v, %v", v, err)
	}
	if _, err := in.Call(nil); err == nil {
		t.Fatal("calling nil succeeded")
	}
}

func TestMissingArgsAreNil(t *testing.T) {
	v, _ := run(t, `
		function f(a, b) if b == nil then return "no-b" end return b end
		return f(1)
	`)
	if v != "no-b" {
		t.Fatalf("got %v", v)
	}
}

func TestBlockScoping(t *testing.T) {
	v, _ := run(t, `
		local x = 1
		if true then
			local x = 2
		end
		for i = 1, 2 do local x = 3 end
		return x
	`)
	if v != 1.0 {
		t.Fatalf("got %v", v)
	}
}

func TestTableLenBorder(t *testing.T) {
	v, _ := run(t, `
		local t = {1, 2, 3}
		t[5] = 5 -- hole at 4
		return #t
	`)
	if v != 3.0 {
		t.Fatalf("border = %v", v)
	}
}

func TestInterpreterDeterminism(t *testing.T) {
	src := `
		keys = {"a", "b", "c"}
		local t = {b = 2, a = 1, c = 3}
		local acc = ""
		for i = 1, #keys do acc = acc .. format("%s=%d,", keys[i], t[keys[i]]) end
		return acc
	`
	first, _ := run(t, src)
	for i := 0; i < 5; i++ {
		again, _ := run(t, src)
		if again != first {
			t.Fatalf("non-deterministic: %v vs %v", first, again)
		}
	}
	if first != "a=1,b=2,c=3," {
		t.Fatalf("order = %v", first)
	}
}

func TestArithmeticPropertyAddCommutes(t *testing.T) {
	f := func(a, b int16) bool {
		in := NewInterp()
		src := "return " + ToString(float64(a)) + " + " + ToString(float64(b))
		v1, err1 := in.RunSource(src)
		src2 := "return " + ToString(float64(b)) + " + " + ToString(float64(a))
		v2, err2 := in.RunSource(src2)
		return err1 == nil && err2 == nil && valuesEqual(v1, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		// Restrict to printable subset without quotes/backslashes.
		clean := strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == ' ' {
				return r
			}
			return -1
		}, s)
		in := NewInterp()
		v, err := in.RunSource(`return "` + clean + `"`)
		return err == nil && v == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatRightAssociative(t *testing.T) {
	v, _ := run(t, `return 1 .. 2 .. 3`)
	if v != "123" {
		t.Fatalf("got %v", v)
	}
}

func TestBreakOutsideLoopError(t *testing.T) {
	// break is not part of the language, so it fails to parse anywhere.
	in := NewInterp()
	_, err := in.RunSource(`break`)
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("break at top level: err = %v, want a *SyntaxError", err)
	}
}
