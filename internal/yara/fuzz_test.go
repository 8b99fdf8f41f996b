package yara

import (
	"errors"
	"testing"
)

// wellFormedRules cover every form the rule language has: meta, quoted
// text with and without nocase, hex runs, and every condition shape.
var wellFormedRules = []string{
	shamoonRule,
	`rule Run { strings: $h = { DEAD BEEF 00 } condition: $h }`,
	`rule Nocase { strings: $a = "MsSecMgr" nocase condition: $a }`,
	`rule Any { strings: $a = "alpha" condition: any of them }
rule Both { strings: $a = "alpha" $b = "bravo" condition: $a and $b }`,
	`rule Clean {
    meta:
        note = "a tool that is not the wiper"
    strings:
        $tool = "diskutil"
        $bad = "wiper"
    condition:
        ($tool and $bad) or ($bad and ($tool or any of them))
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
	for _, c := range removedForms {
		f.Add(c.src)
	}
	for _, c := range nestedConditions(300) {
		f.Add(`rule R { strings: $a = "x" condition: ` + c.cond + ` }`)
	}
	for _, src := range []string{
		`rule R { strings: $a = "x" condition: ((((((((($a`,
		`rule R { strings: $a = { FF 0`,
		`rule R { strings: $a = "x" condition: any of }`,
		`rule R { meta: k = condition: $a }`,
		`rule R { strings: $a = "x" nocase condition: $a or }`,
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
		rs.ScanNames(data)
	})
}
