package minilua

import (
	"errors"
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
`,
	`
local t = {a = 1, ["b"] = {2, 3}, 4}
local n = 0
for k, v in pairs(t) do n = n + 1 end
repeat n = n - 1 until n <= 0
while true do break end
do local x = -t.a * 2 / 4 % 5 end
return n + t.b[1] + #"clip"
`,
}

// FuzzParse holds Parse to the contract for module source that arrives
// over C&C: any input yields either a chunk or a *SyntaxError, and Parse
// never panics or hangs. Only parsing is fuzzed: Run's fuel bounds
// steps, not the memory a step may build.
func FuzzParse(f *testing.F) {
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
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		chunk, err := Parse(src)
		if (chunk == nil) == (err == nil) {
			t.Fatalf("Parse = (%v, %v), want exactly one of a chunk and an error", chunk, err)
		}
		var se *SyntaxError
		if err != nil && !errors.As(err, &se) {
			t.Fatalf("Parse error %T (%v), want a *SyntaxError", err, err)
		}
	})
}
