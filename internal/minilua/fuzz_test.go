package minilua

import (
	"errors"
	"strings"
	"testing"
)

// moduleShapedSources are programs in the shape of the Flame modules
// (internal/malware/flame/modules.go) that reach an agent through C&C
// pushes: comment headers, global tables, entry-point functions, loops
// over host builtins, string formatting and concatenation.
var moduleShapedSources = []string{
	`
-- JIMMY-like: scan documents, report the juicy ones.
jimmy_juicy = {"docx", "ppt", "csv", "dwg"}
function jimmy_run()
	local docs, reported = list_documents(), 0
	for i = 1, #docs do
		if find(lower(docs[i]), "." .. jimmy_juicy[1]) then
			leak_meta(format("jimmy: %s size=%d", docs[i], file_size(docs[i])))
			reported = reported + 1
		end
	end
	return reported
end
`,
	`
munch_active = true
function munch_should_intercept(domain, path)
	if not munch_active then return false end
	return find(domain, "update.") ~= nil
end
function euphoria_should_park(path, size)
	if size > 1048576 then return false elseif size < 0 then return nil else return true end
end
return euphoria_should_park("a.docx", 10) and munch_should_intercept("update.example", "/")
`,
}

// FuzzRun holds the interpreter to the contract for module source that
// arrives over C&C: Parse yields either a chunk or a *SyntaxError, and a
// chunk run on a fresh interpreter returns a value, a *RuntimeError or
// ErrFuelExhausted. Neither panics, and fuel, the call-depth bound and
// the value caps keep every run short and small.
func FuzzRun(f *testing.F) {
	for _, src := range moduleShapedSources {
		f.Add(src)
	}
	for _, src := range []string{
		"",
		"function f(",
		"return ((((((((1",
		"x = {1, 2, {3, {4,",
		"for i = 1, 2, do end",
		"if a then elseif b then else",
		`leak_meta("unterminated`,
		`return "\q"`,
		"local function end",
		"a.b.c[d](e):f() = 1",
		"return 1e999 .. 0x",
		"--[[ block comment",
		// Lua forms outside the language.
		`
local t = {a = 1, ["b"] = {2, 3}, 4}
local n = 0
for k, v in pairs(t) do n = n + 1 end
repeat n = n - 1 until n <= 0
while true do break end
do local x = -t.a * 2 / 4 % 5 end
return n + t.b[1] + #"clip"
`,
		// Each bound.
		"function f(n) if n > 1000 then return n end return f(n + 1) end return f(1)",
		`s = "x" for i = 1, 30 do s = s .. s end return #s`,
		"t = {} for i = 1, 100000 do t[i] = i end return #t",
		"for i = 1, 10000000 do end",
		"return " + strings.Repeat("(", 300) + "1" + strings.Repeat(")", 300),
		"return 1" + strings.Repeat(" + 1", 300),
		"return " + strings.Repeat("{", 300) + strings.Repeat("}", 300),
		strings.Repeat("if true then ", 300) + "return 1 " + strings.Repeat("end ", 300),
		"t = {} for i = 1, 50000 do t[#t+1] = i end return #t",
		"t = {} for i = 1, 65536 do t[i] = i end for i = 1, 1000000000 do t[1] = nil t[1] = 0 end",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		chunk, err := Parse(src)
		if (chunk == nil) == (err == nil) {
			t.Fatalf("Parse = (%v, %v), want exactly one of a chunk and an error", chunk, err)
		}
		var se *SyntaxError
		if err != nil {
			if !errors.As(err, &se) {
				t.Fatalf("Parse error %T (%v), want a *SyntaxError", err, err)
			}
			return
		}
		_, err = NewInterp().Run(chunk)
		var re *RuntimeError
		if err != nil && !errors.As(err, &re) && !errors.Is(err, ErrFuelExhausted) {
			t.Fatalf("Run error %T (%v), want a *RuntimeError or ErrFuelExhausted", err, err)
		}
	})
}
