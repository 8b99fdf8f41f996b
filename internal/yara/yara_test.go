package yara

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const shamoonRule = `
rule ShamoonDropper {
    meta:
        family = "shamoon"
        severity = "high"
    strings:
        $svc = "TrkSvr"
        $rep = "netinit.exe"
        $jpg = { FF D8 FF E0 00 }
    condition:
        $svc and ($rep or $jpg)
}
`

func TestCompileAndScanBasic(t *testing.T) {
	rs, err := Compile(shamoonRule)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(rs.Rules) != 1 || rs.Rules[0].Name != "ShamoonDropper" || len(rs.Rules[0].Patterns) != 3 {
		t.Fatalf("rules = %+v", rs.Rules)
	}
	for _, c := range []struct {
		data string
		want []string
	}{
		{"...TrkSvr service...netinit.exe reporter...", []string{"ShamoonDropper"}},
		{"TrkSvr and a header \xFF\xD8\xFF\xE0\x00", []string{"ShamoonDropper"}},
		{"TrkSvr only, no second indicator", nil},
		{"netinit.exe without service name", nil},
	} {
		if got := rs.ScanNames([]byte(c.data)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ScanNames(%q) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestHexRunsAndMultiByteTokens(t *testing.T) {
	rs := MustCompile(`
rule Run {
    strings:
        $h = { DEAD BEEF }
    condition:
        $h
}`)
	if got := rs.Rules[0].Patterns[0].Text; string(got) != "\xDE\xAD\xBE\xEF" {
		t.Fatalf("hex run compiled to % X", got)
	}
	if len(rs.ScanNames([]byte{0x00, 0xDE, 0xAD, 0xBE, 0xEF})) != 1 {
		t.Fatal("multi-byte hex run failed")
	}
	if len(rs.ScanNames([]byte{0xDE, 0xAD, 0xBE, 0xEE})) != 0 {
		t.Fatal("a different last byte matched")
	}
}

func TestNocase(t *testing.T) {
	rs := MustCompile(`
rule Nocase {
    strings:
        $a = "MsSecMgr" nocase
    condition:
        $a
}`)
	if len(rs.ScanNames([]byte("...MSSECMGR.OCX..."))) != 1 {
		t.Fatal("nocase failed upper")
	}
	if len(rs.ScanNames([]byte("...mssecmgr.ocx..."))) != 1 {
		t.Fatal("nocase failed lower")
	}
}

func TestOfThemConditions(t *testing.T) {
	rs := MustCompile(`
rule AnyOfThem {
    strings:
        $a = "alpha"
        $b = "bravo"
    condition:
        any of them
}`)
	for data, want := range map[string]int{"alpha only": 1, "bravo only": 1, "alpha bravo": 1, "charlie": 0} {
		if got := len(rs.ScanNames([]byte(data))); got != want {
			t.Errorf("%q fired %d rules, want %d", data, got, want)
		}
	}
}

func TestOrPrecedence(t *testing.T) {
	// and binds tighter than or: $a or $b and $c == $a or ($b and $c);
	// parentheses override it.
	rs := MustCompile(`
rule Prec {
    strings:
        $a = "aa"
        $b = "bb"
        $c = "cc"
    condition:
        $a or $b and $c
}
rule Parens {
    strings:
        $a = "aa"
        $b = "bb"
        $c = "cc"
    condition:
        ($a or $b) and $c
}`)
	for data, want := range map[string][]string{
		"aa":       {"Prec"},
		"bb":       nil,
		"bb cc":    {"Prec", "Parens"},
		"aa cc":    {"Prec", "Parens"},
		"cc alone": nil,
	} {
		if got := rs.ScanNames([]byte(data)); !reflect.DeepEqual(got, want) {
			t.Errorf("ScanNames(%q) = %v, want %v", data, got, want)
		}
	}
}

func TestMultipleRulesOrder(t *testing.T) {
	rs := MustCompile(`
rule First { strings: $a = "x" condition: $a }
rule Second { strings: $a = "x" condition: $a }
`)
	names := rs.ScanNames([]byte("x"))
	if len(names) != 2 || names[0] != "First" || names[1] != "Second" {
		t.Fatalf("names = %v", names)
	}
}

// malformedRules each fail to compile, one defect apiece. The second
// group spells forms the rule language does not have.
var malformedRules = []string{
	``,                             // no rules
	`rule {}`,                      // missing name
	`rule R { condition: $ghost }`, // undefined ref
	`rule R { strings: $a = "x" condition: }`,                                               // empty condition
	`rule R { strings: $a = "" condition: $a }`,                                             // empty pattern
	`rule R { strings: $a = { } condition: $a }`,                                            // empty hex
	`rule R { strings: $a = { GG } condition: $a }`,                                         // bad hex
	`rule R { strings: $a = { F } condition: $a }`,                                          // odd hex
	`rule R { strings: $a = "x" $a = "y" condition: $a }`,                                   // dup string
	`rule R { condition: any of them }`,                                                     // of-them without strings
	`rule R { strings: $a = "x" condition: $a } rule R { strings: $b = "y" condition: $b }`, // dup rule
	`rule R { strings: $a = "unterminated condition: $a }`,
	`rule R { strings: $a = "x" condition: $a`, // missing brace
	`rule R { strings: $a =`,                   // ends inside a declaration

	`rule R { condition: 2 of them }`,
	`rule R { strings: $a = "x" condition: #a >< 1 }`,
	`rule R { strings: $a = "a\x00b\n" condition: $a }`,
	`rule Run { strings: $h = { DEAD BEEF ?? 00 } condition: $h }`,
	`rule JpegHeader { strings: $h = { FF D8 FF ?? 00 } condition: $h }`,
	`rule Two { strings: $a = "alpha" $b = "bravo" $c = "charlie" condition: 2 of them }
rule Any { strings: $a = "alpha" condition: any of them }
rule All { strings: $a = "alpha" $b = "bravo" condition: all of them }`,
	`rule Repeats { strings: $x = "AB" condition: #x >= 3 and #x != 5 or #x < 1 }`,
	`rule Overlap { strings: $x = "AA" condition: #x == 3 }`,
	`rule CleanTool { strings: $tool = "diskutil" $bad = "wiper" condition: $tool and not $bad }`,
	`// leading comment
rule Clean { // inline
    strings:
        $tool = "diskutil" // trailing
        $bad = "wiper"
    condition:
        ($tool and not $bad) or ($bad and $tool)
}`,
	`rule R { meta: version = 2 strings: $a = "x" condition: $a }`,
	`rule R { meta: family = shamoon strings: $a = "x" condition: $a }`,
}

// removedForms spell, each on line 3, a YARA form that the disclosure
// rules do not use and the engine therefore does not parse.
var removedForms = []struct {
	name, src string
}{
	{"not", "rule R {\n strings: $a = \"x\" $b = \"y\"\n condition: $a and not $b }"},
	{"N of them", "rule R {\n strings: $a = \"x\" $b = \"y\"\n condition: 2 of them }"},
	{"all of them", "rule R {\n strings: $a = \"x\" $b = \"y\"\n condition: all of them }"},
	{"count", "rule R {\n strings: $a = \"x\"\n condition: #a > 1 }"},
	{"wildcard", "rule R {\n strings:\n $a = { FF ?? } condition: $a }"},
	{"escape", "rule R {\n strings:\n $a = \"a\\n\" condition: $a }"},
	{"comment", "rule R {\n strings: $a = \"x\"\n // c\n condition: $a }"},
	{"numeric meta", "rule R {\n meta:\n n = 1 strings: $a = \"x\" condition: $a }"},
}

func TestRemovedFormsAreParseErrors(t *testing.T) {
	for _, c := range removedForms {
		_, err := Compile(c.src)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 3 {
			t.Errorf("%s: Compile(%q) = %v, want a *ParseError at line 3", c.name, c.src, err)
		}
	}
}

// nestedConditions spell conditions n levels deep: in parentheses, as
// left-deep and/or chains, and as a chain inside parentheses that a
// second chain extends, so no one chain is deeper than n/2.
func nestedConditions(n int) []struct{ name, cond string } {
	return []struct{ name, cond string }{
		{"parentheses", strings.Repeat("(", n) + "$a" + strings.Repeat(")", n)},
		{"and chain", "$a" + strings.Repeat(" and $a", n)},
		{"or chain", "$a" + strings.Repeat(" or $a", n)},
		{"chain of chains", "($a" + strings.Repeat(" or $a", n/2) + ")" + strings.Repeat(" and $a", n/2)},
	}
}

// TestNestingBound: a condition that nests 1,000 levels deep is a
// *ParseError at its line, since parsing and evaluation recurse per
// level; 100 levels compile and fire.
func TestNestingBound(t *testing.T) {
	for _, c := range nestedConditions(1000) {
		_, err := Compile("rule R {\n strings: $a = \"x\"\n condition: " + c.cond + " }")
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 3 || pe.Msg != "condition nests deeper than 200 levels" {
			t.Errorf("%s at 1,000 levels: err = %v, want a nesting *ParseError at line 3", c.name, err)
		}
	}
	for _, c := range nestedConditions(100) {
		rs, err := Compile(`rule R { strings: $a = "x" condition: ` + c.cond + ` }`)
		if err != nil {
			t.Fatalf("%s at 100 levels: %v", c.name, err)
		}
		if got := rs.ScanNames([]byte("x")); !reflect.DeepEqual(got, []string{"R"}) {
			t.Errorf("%s at 100 levels: ScanNames = %v, want [R]", c.name, got)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	for _, src := range malformedRules {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile accepted %q", src)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("%q: err = %T, want ParseError", src, err)
			}
		}
	}
}

func TestNilRuleSetScansNothing(t *testing.T) {
	var rs *RuleSet
	if got := rs.ScanNames([]byte("anything")); got != nil {
		t.Fatalf("nil rule set names: %v", got)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile("not a rule")
}

// bruteForceIn is the reference search: every offset, every byte, with
// ASCII case folding when nocase is set.
func bruteForceIn(hay, needle []byte, nocase bool) bool {
	fold := func(b byte) byte {
		if nocase && b >= 'a' && b <= 'z' {
			return b - 32
		}
		return b
	}
next:
	for off := 0; off+len(needle) <= len(hay); off++ {
		for j := range needle {
			if fold(hay[off+j]) != fold(needle[j]) {
				continue next
			}
		}
		return true
	}
	return false
}

// TestPresenceProperty checks pattern presence against the brute-force
// search, with and without nocase, on random haystacks over a small
// alphabet so that hits and near misses both occur; '@' and '`' sit 32
// below 'A' and 'a' without being letters.
func TestPresenceProperty(t *testing.T) {
	const alphabet = "aAbB@`\x00\xFF"
	pick := func(raw []byte) []byte {
		out := make([]byte, len(raw))
		for i, b := range raw {
			out[i] = alphabet[int(b)%len(alphabet)]
		}
		return out
	}
	f := func(rawHay, rawNeedle []byte, nocase bool) bool {
		if len(rawNeedle) == 0 {
			return true
		}
		hay, needle := pick(rawHay), pick(rawNeedle[:min(len(rawNeedle), 4)])
		p := &Pattern{ID: "x", Text: needle, Nocase: nocase}
		return p.in(hay) == bruteForceIn(hay, needle, nocase)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternOnImageBoundary(t *testing.T) {
	for _, nocase := range []bool{false, true} {
		p := &Pattern{ID: "x", Text: []byte("end"), Nocase: nocase}
		if !p.in([]byte("the end")) || !p.in([]byte("end of it")) {
			t.Fatalf("nocase=%v: a match at the edge of the data was missed", nocase)
		}
		if p.in([]byte("en")) || p.in(nil) {
			t.Fatalf("nocase=%v: a haystack shorter than the pattern matched", nocase)
		}
	}
}
