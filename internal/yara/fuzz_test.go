package yara

import (
	"errors"
	"testing"
)

// wellFormedRules cover every form the rule language has: meta, quoted
// text with escapes and nocase, hex runs with wildcards, every condition
// shape and comments.
var wellFormedRules = []string{
	shamoonRule,
	`rule R { strings: $a = "a\x00b\n" condition: $a }`,
	`rule Run { strings: $h = { DEAD BEEF ?? 00 } condition: $h }`,
	`rule Nocase { strings: $a = "MsSecMgr" nocase condition: $a }`,
	`rule Two { strings: $a = "alpha" $b = "bravo" $c = "charlie" condition: 2 of them }
rule Any { strings: $a = "alpha" condition: any of them }
rule All { strings: $a = "alpha" $b = "bravo" condition: all of them }`,
	`rule Repeats { strings: $x = "AB" condition: #x >= 3 and #x != 5 or #x < 1 }`,
	`// leading comment
rule Clean { // inline
    strings:
        $tool = "diskutil" // trailing
        $bad = "wiper"
    condition:
        ($tool and not $bad) or ($bad and $tool)
}`,
}

// FuzzCompile holds Compile, the front end of the rule language, to the
// contract of every reader of outside bytes: any source yields either a
// rule set or a *ParseError, never a panic or a hang, and an accepted
// set scans a fixed buffer without a panic.
func FuzzCompile(f *testing.F) {
	for _, src := range wellFormedRules {
		if _, err := Compile(src); err != nil {
			f.Fatalf("seed %q: %v", src, err)
		}
		f.Add(src)
	}
	for _, src := range malformedRules {
		f.Add(src)
	}
	for _, src := range []string{
		`rule R { strings: $a = "x" condition: ((((((((($a`,
		`rule R { strings: $a = { FF ?? ?`,
		`rule R { strings: $a = "x" condition: 99999999999999999999 of them }`,
		`rule R { meta: k = condition: $a }`,
		`rule R { strings: $a = "\x4" condition: $a }`,
	} {
		f.Add(src)
	}
	data := []byte("..TrkSvr..netinit.exe..\xFF\xD8\xFF\xE0\x00..AB AB AB..alpha bravo..MSSECMGR..\xDE\xAD\xBE\xEF")
	f.Fuzz(func(t *testing.T, src string) {
		rs, err := Compile(src)
		if (rs == nil) == (err == nil) {
			t.Fatalf("Compile = (%v, %v), want exactly one of a rule set and an error", rs, err)
		}
		var pe *ParseError
		if err != nil && !errors.As(err, &pe) {
			t.Fatalf("Compile error %T (%v), want a *ParseError", err, err)
		}
		rs.Scan(data)
	})
}
