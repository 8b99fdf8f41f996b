// Package analysis is the dissection toolchain — the paper's methodology
// turned into code. It provides static analysis of SPE images (sections,
// entropy, strings, imports, signature verdicts, XOR-key recovery for
// encrypted resources), a signature antivirus built on the yara engine, a
// behavioural sandbox with an instrumented host and sinkholed internet,
// and the Section-V trend classifier.
package analysis

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/pe"
	"repro/internal/pki"
)

// SectionReport summarizes one section.
type SectionReport struct {
	Name    string
	Size    int
	Entropy float64
	Exec    bool
}

// ResourceReport summarizes one resource, including encryption analysis.
type ResourceReport struct {
	ID      uint16
	Size    int
	Entropy float64
	// LikelyEncrypted flags resources whose entropy is document-atypical.
	LikelyEncrypted bool
	// RecoveredKey is the XOR key found by cryptanalysis (nil if none).
	RecoveredKey []byte
	// DecryptsToImage reports that the recovered plaintext parses as a
	// nested SPE image (Shamoon's embedded components).
	DecryptsToImage bool
	// NestedName is the embedded image's name when DecryptsToImage.
	NestedName string
}

// SignatureVerdict describes the image's signature state.
type SignatureVerdict struct {
	Present bool
	Signer  string
	Chain   []string
	// ValidFor lists usages the chain verifies for against the store.
	ValidFor []string
	Error    string
}

// StaticReport is the full static-analysis result.
type StaticReport struct {
	Name      string
	Machine   string
	Size      int
	Timestamp time.Time
	Sections  []SectionReport
	Imports   []string // "lib!func"
	// ImpHash fingerprints the import table (lower-cased, order-
	// normalized) — identical across variants that share a build, the
	// classic sample-clustering feature.
	ImpHash   string
	Resources []ResourceReport
	Strings   []string
	Signature SignatureVerdict
	YaraHits  []string
}

// ImpHash computes the import-table fingerprint of an image.
func ImpHash(img *pe.File) string {
	var parts []string
	for _, imp := range img.Imports {
		for _, fn := range imp.Functions {
			parts = append(parts, strings.ToLower(imp.Library+"."+fn))
		}
	}
	sort.Strings(parts)
	sum := sha256.Sum256([]byte(strings.Join(parts, ",")))
	return fmt.Sprintf("%x", sum[:8])
}

// isZeroKey reports an all-zero (identity) XOR key.
func isZeroKey(key []byte) bool {
	for _, b := range key {
		if b != 0 {
			return false
		}
	}
	return true
}

// Analyzer performs static analysis against a trust store and an optional
// rule set.
type Analyzer struct {
	Store *pki.Store
	Rules interface {
		ScanNames(data []byte) []string
	}
}

// maxXORKeyLen bounds repeating-key XOR recovery; minStringLen is the
// shortest run strings extraction reports.
const (
	maxXORKeyLen = 4
	minStringLen = 6
)

// Analyze produces a static report for the image at the given analysis
// time (signature validity is time-dependent).
func (a *Analyzer) Analyze(img *pe.File, now time.Time) (*StaticReport, error) {
	raw, err := img.Marshal()
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}

	rep := &StaticReport{
		Name:      img.Name,
		Machine:   img.Machine.String(),
		Size:      len(raw),
		Timestamp: img.Timestamp,
	}
	for _, s := range img.Sections {
		rep.Sections = append(rep.Sections, SectionReport{
			Name:    s.Name,
			Size:    len(s.Data),
			Entropy: pe.Entropy(s.Data),
			Exec:    s.Characteristics&pe.SecExec != 0,
		})
		rep.Strings = append(rep.Strings, interestingStrings(s.Data, minStringLen)...)
	}
	for _, imp := range img.Imports {
		for _, fn := range imp.Functions {
			rep.Imports = append(rep.Imports, imp.Library+"!"+fn)
		}
	}
	if len(rep.Imports) > 0 {
		rep.ImpHash = ImpHash(img)
	}
	for _, res := range img.Resources {
		rr := ResourceReport{ID: res.ID, Size: len(res.Raw), Entropy: pe.Entropy(res.Raw)}
		// Classification is recovery-driven: a resource that does not
		// parse as-is but decrypts under a confidently recovered
		// non-identity XOR key is encrypted. (Entropy alone cannot flag
		// single-byte XOR — a byte permutation preserves entropy.)
		if nested, err := pe.Parse(res.Raw); err == nil {
			rr.DecryptsToImage = true
			rr.NestedName = nested.Name
		} else if key, plain, ok := RecoverXORKey(res.Raw, maxXORKeyLen); ok && !isZeroKey(key) {
			rr.LikelyEncrypted = true
			rr.RecoveredKey = key
			if nested, err := pe.Parse(plain); err == nil {
				rr.DecryptsToImage = true
				rr.NestedName = nested.Name
			}
		} else if plaintextScore(res.Raw) < 0.5 {
			// Undecodable and unstructured: flag it, no key.
			rr.LikelyEncrypted = true
		}
		rep.Resources = append(rep.Resources, rr)
	}

	rep.Signature = a.signatureVerdict(img, now)
	if a.Rules != nil {
		rep.YaraHits = a.Rules.ScanNames(raw)
	}
	return rep, nil
}

func (a *Analyzer) signatureVerdict(img *pe.File, now time.Time) SignatureVerdict {
	v := SignatureVerdict{Present: len(img.SigBlob) > 0}
	if !v.Present || a.Store == nil {
		return v
	}
	usages := []struct {
		usage pki.KeyUsage
		name  string
	}{
		{pki.UsageCodeSign, "code-sign"},
		{pki.UsageDriverSign, "driver-sign"},
		{pki.UsageLicenseOnly, "license-only"},
	}
	var lastErr error
	for _, u := range usages {
		sig, err := pki.VerifyImage(img, a.Store, now, u.usage)
		if err != nil {
			lastErr = err
			continue
		}
		if v.Signer == "" {
			v.Signer = sig.Chain[0].Subject
			for _, c := range sig.Chain {
				v.Chain = append(v.Chain, c.Subject)
			}
		}
		v.ValidFor = append(v.ValidFor, u.name)
	}
	if len(v.ValidFor) == 0 && lastErr != nil {
		v.Error = lastErr.Error()
	}
	return v
}

// interestingStrings filters extracted strings down to indicator-like
// content: paths, domains, file names with extensions, known API-ish
// tokens.
func interestingStrings(data []byte, minLen int) []string {
	var out []string
	for _, s := range pe.ExtractStrings(data, minLen) {
		low := strings.ToLower(s)
		switch {
		case strings.Contains(low, "www.") || strings.Contains(low, ".com") || strings.Contains(low, ".exe") ||
			strings.Contains(low, ".dll") || strings.Contains(low, ".sys") || strings.Contains(low, ".ocx") ||
			strings.Contains(low, ".inf") || strings.Contains(low, `\\`) || strings.Contains(low, "get_") ||
			strings.Contains(low, "add_"):
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return dedupeStrings(out)
}

func dedupeStrings(in []string) []string {
	out := in[:0]
	var prev string
	for i, s := range in {
		if i == 0 || s != prev {
			out = append(out, s)
		}
		prev = s
	}
	return out
}

// RecoverXORKey mounts the repeating-key XOR cryptanalysis the Shamoon
// dissection needed, in two stages:
//
//  1. Known-plaintext attack: if the payload is a nested executable its
//     first bytes are the SPE magic, so cipher[i] XOR magic[i] yields the
//     key directly for key lengths up to len(magic). A candidate that
//     decrypts to a parseable image is accepted immediately. (Real-world
//     analysts do exactly this against PE's "MZ" header.)
//  2. Frequency analysis fallback: per key-stride, assume the most common
//     plaintext byte is 0x00 (binary padding) or 0x20 (text), derive the
//     key byte from the stride's mode, and keep the candidate whose
//     decryption looks most plaintext-like.
//
// It returns the key, the plaintext, and whether recovery is confident.
func RecoverXORKey(cipher []byte, maxKeyLen int) (key, plain []byte, ok bool) {
	if len(cipher) < 64 {
		return nil, nil, false
	}
	// Stage 1: known-plaintext against the image magic.
	for keyLen := 1; keyLen <= maxKeyLen && keyLen <= len(pe.Magic); keyLen++ {
		candidate := make([]byte, keyLen)
		for i := 0; i < keyLen; i++ {
			candidate[i] = cipher[i] ^ pe.Magic[i]
		}
		decrypted := pe.XOR(cipher, candidate)
		if _, err := pe.Parse(decrypted); err == nil {
			return candidate, decrypted, true
		}
	}
	// Stage 2: stride-mode frequency analysis.
	bestScore := 0.0
	for keyLen := 1; keyLen <= maxKeyLen; keyLen++ {
		for _, assumed := range []byte{0x00, 0x20} {
			candidate := make([]byte, keyLen)
			for pos := 0; pos < keyLen; pos++ {
				var counts [256]int
				for i := pos; i < len(cipher); i += keyLen {
					counts[cipher[i]]++
				}
				mode := 0
				for b := 1; b < 256; b++ {
					if counts[b] > counts[mode] {
						mode = b
					}
				}
				candidate[pos] = byte(mode) ^ assumed
			}
			decrypted := pe.XOR(cipher, candidate)
			score := plaintextScore(decrypted)
			if score > bestScore {
				bestScore = score
				key = candidate
				plain = decrypted
			}
		}
	}
	return key, plain, bestScore > 0.55
}

// plaintextScore estimates how plaintext-like data is: fraction of zero or
// printable-ASCII bytes.
func plaintextScore(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	n := 0
	for _, b := range data {
		if b == 0 || (b >= 0x20 && b <= 0x7e) || b == '\n' || b == '\r' || b == '\t' {
			n++
		}
	}
	return float64(n) / float64(len(data))
}

// Render produces a human-readable dissection summary.
func (r *StaticReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s, %d bytes, built %s)\n", r.Name, r.Machine, r.Size, r.Timestamp.Format("2006-01-02"))
	for _, s := range r.Sections {
		exec := ""
		if s.Exec {
			exec = " exec"
		}
		fmt.Fprintf(&b, "  section %-8s %8d bytes  entropy %.2f%s\n", s.Name, s.Size, s.Entropy, exec)
	}
	for _, res := range r.Resources {
		fmt.Fprintf(&b, "  resource %-4d %8d bytes  entropy %.2f", res.ID, res.Size, res.Entropy)
		if res.LikelyEncrypted {
			fmt.Fprintf(&b, "  ENCRYPTED")
			if res.RecoveredKey != nil {
				fmt.Fprintf(&b, " (xor key % X", res.RecoveredKey)
				if res.DecryptsToImage {
					fmt.Fprintf(&b, " -> embedded image %q", res.NestedName)
				}
				fmt.Fprintf(&b, ")")
			}
		}
		b.WriteByte('\n')
	}
	if r.ImpHash != "" {
		fmt.Fprintf(&b, "  imphash: %s\n", r.ImpHash)
	}
	switch {
	case !r.Signature.Present:
		b.WriteString("  signature: none\n")
	case len(r.Signature.ValidFor) > 0:
		fmt.Fprintf(&b, "  signature: VALID for %v, signer %q chain %v\n", r.Signature.ValidFor, r.Signature.Signer, r.Signature.Chain)
	default:
		fmt.Fprintf(&b, "  signature: INVALID (%s)\n", r.Signature.Error)
	}
	if len(r.YaraHits) > 0 {
		fmt.Fprintf(&b, "  yara: %v\n", r.YaraHits)
	}
	if len(r.Strings) > 0 {
		fmt.Fprintf(&b, "  indicators: %v\n", r.Strings)
	}
	return b.String()
}
