package yara

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

const shamoonRule = `
// dissection signature for the Shamoon dropper
rule ShamoonDropper {
    meta:
        family = "shamoon"
        severity = "high"
    strings:
        $svc = "TrkSvr"
        $rep = "netinit.exe"
        $jpg = { FF D8 FF ?? 00 }
    condition:
        $svc and ($rep or $jpg)
}
`

func TestCompileAndScanBasic(t *testing.T) {
	rs, err := Compile(shamoonRule)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(rs.Rules) != 1 || rs.Rules[0].Name != "ShamoonDropper" {
		t.Fatalf("rules = %v", rs.RuleNames())
	}
	r := rs.Rules[0]
	if r.Meta["family"] != "shamoon" || r.Meta["severity"] != "high" {
		t.Fatalf("meta = %v", r.Meta)
	}

	data := []byte("...TrkSvr service...netinit.exe reporter...")
	matches := rs.Scan(data)
	if len(matches) != 1 {
		t.Fatalf("matches = %d", len(matches))
	}
	got := matches[0].MatchedIDs()
	if len(got) != 2 || got[0] != "rep" || got[1] != "svc" {
		t.Fatalf("matched ids = %v", got)
	}

	if ms := rs.Scan([]byte("TrkSvr only, no second indicator")); len(ms) != 0 {
		t.Fatalf("partial indicators matched: %v", ms)
	}
	if ms := rs.Scan([]byte("netinit.exe without service name")); len(ms) != 0 {
		t.Fatalf("condition ignored: %v", ms)
	}
}

func TestHexPatternWithWildcards(t *testing.T) {
	rs := MustCompile(`
rule JpegHeader {
    strings:
        $h = { FF D8 FF ?? 00 }
    condition:
        $h
}`)
	match := []byte{0x00, 0xFF, 0xD8, 0xFF, 0xE0, 0x00, 0x10}
	if len(rs.Scan(match)) != 1 {
		t.Fatal("wildcard hex did not match")
	}
	// Wildcard position can be anything...
	match[4] = 0x77
	if len(rs.Scan(match)) != 1 {
		t.Fatal("wildcard byte constrained")
	}
	// ...but fixed positions cannot.
	match[5] = 0x01
	if len(rs.Scan(match)) != 0 {
		t.Fatal("fixed byte ignored")
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
	if len(rs.Scan([]byte{0xDE, 0xAD, 0xBE, 0xEF})) != 1 {
		t.Fatal("multi-byte hex run failed")
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
	if len(rs.Scan([]byte("...MSSECMGR.OCX..."))) != 1 {
		t.Fatal("nocase failed upper")
	}
	if len(rs.Scan([]byte("...mssecmgr.ocx..."))) != 1 {
		t.Fatal("nocase failed lower")
	}
}

func TestOfThemConditions(t *testing.T) {
	src := `
rule TwoOfThem {
    strings:
        $a = "alpha"
        $b = "bravo"
        $c = "charlie"
    condition:
        2 of them
}
rule AnyOfThem {
    strings:
        $a = "alpha"
        $b = "bravo"
    condition:
        any of them
}
rule AllOfThem {
    strings:
        $a = "alpha"
        $b = "bravo"
    condition:
        all of them
}`
	rs := MustCompile(src)
	names := rs.ScanNames([]byte("alpha bravo"))
	if len(names) != 3 {
		t.Fatalf("alpha+bravo matched %v", names)
	}
	names = rs.ScanNames([]byte("alpha only"))
	if len(names) != 1 || names[0] != "AnyOfThem" {
		t.Fatalf("alpha-only matched %v", names)
	}
	names = rs.ScanNames([]byte("charlie alpha"))
	if len(names) != 2 {
		t.Fatalf("charlie+alpha matched %v", names)
	}
}

func TestCountConditions(t *testing.T) {
	rs := MustCompile(`
rule Repeats {
    strings:
        $x = "AB"
    condition:
        #x >= 3
}`)
	if len(rs.Scan([]byte("AB AB AB"))) != 1 {
		t.Fatal("three occurrences not counted")
	}
	if len(rs.Scan([]byte("AB AB"))) != 0 {
		t.Fatal("two occurrences matched >= 3")
	}
	// Overlapping matches count.
	rs2 := MustCompile(`
rule Overlap {
    strings:
        $x = "AA"
    condition:
        #x == 3
}`)
	if len(rs2.Scan([]byte("AAAA"))) != 1 {
		t.Fatal("overlapping occurrences not counted (AAAA has 3 AA)")
	}
}

func TestNotAndParens(t *testing.T) {
	rs := MustCompile(`
rule CleanTool {
    strings:
        $tool = "diskutil"
        $bad = "wiper"
    condition:
        $tool and not $bad
}`)
	if len(rs.Scan([]byte("diskutil v1"))) != 1 {
		t.Fatal("clean sample not matched")
	}
	if len(rs.Scan([]byte("diskutil wiper"))) != 0 {
		t.Fatal("bad sample matched")
	}
}

func TestOrPrecedence(t *testing.T) {
	// and binds tighter than or: $a or $b and $c == $a or ($b and $c)
	rs := MustCompile(`
rule Prec {
    strings:
        $a = "aa"
        $b = "bb"
        $c = "cc"
    condition:
        $a or $b and $c
}`)
	if len(rs.Scan([]byte("aa"))) != 1 {
		t.Fatal("$a alone should match")
	}
	if len(rs.Scan([]byte("bb"))) != 0 {
		t.Fatal("$b alone should not match")
	}
	if len(rs.Scan([]byte("bb cc"))) != 1 {
		t.Fatal("$b and $c should match")
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

func TestHitOffsets(t *testing.T) {
	rs := MustCompile(`rule R { strings: $a = "ab" condition: $a }`)
	m, ok := rs.Rules[0].Eval([]byte("ab..ab"))
	if !ok {
		t.Fatal("no match")
	}
	offs := m.Hits["a"]
	if len(offs) != 2 || offs[0] != 0 || offs[1] != 4 {
		t.Fatalf("offsets = %v", offs)
	}
}

func TestEscapesInStrings(t *testing.T) {
	rs := MustCompile(`rule R { strings: $a = "a\x00b\n" condition: $a }`)
	if len(rs.Scan([]byte{'a', 0, 'b', '\n'})) != 1 {
		t.Fatal("escaped pattern failed")
	}
}

// malformedRules each fail to compile, one defect apiece.
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
	`rule R { condition: 2 of them }`,                                                       // of-them without strings
	`rule R { strings: $a = "x" condition: #a >< 1 }`,                                       // bad op
	`rule R { strings: $a = "x" condition: $a } rule R { strings: $b = "y" condition: $b }`, // dup rule
	`rule R { strings: $a = "unterminated condition: $a }`,
	`rule R { strings: $a = "x" condition: $a`, // missing brace
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
	if got := rs.Scan([]byte("anything")); got != nil {
		t.Fatalf("nil rule set matched: %v", got)
	}
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

func TestCommentsSkipped(t *testing.T) {
	rs := MustCompile(`
// leading comment
rule R { // inline
    strings:
        $a = "x" // trailing
    condition:
        $a
}`)
	if len(rs.Scan([]byte("x"))) != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestFindAllProperty(t *testing.T) {
	// Every reported offset must actually contain the pattern.
	f := func(hay []byte, needle []byte) bool {
		if len(needle) == 0 || len(needle) > 4 {
			return true
		}
		p := &Pattern{ID: "x", Text: needle}
		for _, off := range p.FindAll(hay) {
			if !bytes.Equal(hay[off:off+len(needle)], needle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFindAllCountsNonOverlapBaseline(t *testing.T) {
	p := &Pattern{ID: "x", Text: []byte("ab")}
	hay := []byte(strings.Repeat("ab", 10))
	if got := len(p.FindAll(hay)); got != 10 {
		t.Fatalf("FindAll = %d, want 10", got)
	}
}

func TestPatternOnImageBoundary(t *testing.T) {
	p := &Pattern{ID: "x", Text: []byte("end")}
	if got := p.FindAll([]byte("the end")); len(got) != 1 || got[0] != 4 {
		t.Fatalf("boundary match = %v", got)
	}
	if got := p.FindAll([]byte("en")); got != nil {
		t.Fatalf("short haystack matched: %v", got)
	}
}
