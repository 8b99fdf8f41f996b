// Package yara implements the part of the YARA rule language that the
// range's disclosure signatures speak, and scans bytes for which rules
// fire. Rules are parsed from a textual form close to real YARA:
//
//	rule Shamoon_Wiper {
//	    meta:
//	        family = "shamoon"
//	    strings:
//	        $inf = "f1.inf"
//	        $drv = "DRDISK.SYS" nocase
//	        $jpg = { FF D8 FF E0 }
//	    condition:
//	        $inf and ($drv or $jpg)
//	}
//
// A string is quoted text, taken verbatim and optionally `nocase`
// (ASCII case folding), or a run of hex bytes. A condition combines
// $id references with `and`, `or`, parentheses and `any of them`; `and`
// binds tighter than `or`. Meta entries take quoted values and are
// accepted and discarded. Anything else (escapes, comments, wildcards,
// `not`, counts, `N of them`, `all of them`) is a *ParseError.
package yara

import "bytes"

// Pattern is one compiled string declaration.
type Pattern struct {
	ID     string // without the $
	Nocase bool
	// Text is the byte string to find: the quoted text, or the bytes
	// of a hex run.
	Text []byte
}

// in reports whether the pattern occurs in data.
func (p *Pattern) in(data []byte) bool {
	if !p.Nocase {
		return bytes.Contains(data, p.Text)
	}
next:
	for off := 0; off+len(p.Text) <= len(data); off++ {
		for j, b := range p.Text {
			if toLower(data[off+j]) != toLower(b) {
				continue next
			}
		}
		return true
	}
	return false
}

func toLower(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 32
	}
	return b
}

// Rule is one compiled rule.
type Rule struct {
	Name     string
	Patterns []*Pattern
	cond     *cond
}

// RuleSet is a compiled collection of rules.
type RuleSet struct {
	Rules []*Rule
}

// ScanNames returns the names of the rules that fire on data, in
// declaration order. A nil rule set matches nothing.
func (rs *RuleSet) ScanNames(data []byte) []string {
	if rs == nil {
		return nil
	}
	var out []string
	for _, r := range rs.Rules {
		if r.holds(r.cond, data) {
			out = append(out, r.Name)
		}
	}
	return out
}

// cond is one node of a compiled condition.
type cond struct {
	kind   condKind
	height int      // the and/or operators on the longest path down
	pat    *Pattern // condRef
	l, r   *cond    // condAnd, condOr
}

type condKind uint8

const (
	condRef condKind = iota // $id
	condAny                 // any of them
	condAnd                 // l and r
	condOr                  // l or r
)

// holds evaluates c against data, searching only for the patterns the
// evaluation reaches.
func (r *Rule) holds(c *cond, data []byte) bool {
	switch c.kind {
	case condRef:
		return c.pat.in(data)
	case condAnd:
		return r.holds(c.l, data) && r.holds(c.r, data)
	case condOr:
		return r.holds(c.l, data) || r.holds(c.r, data)
	}
	// condAny
	for _, p := range r.Patterns {
		if p.in(data) {
			return true
		}
	}
	return false
}
