package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// IOCKind classifies an indicator of compromise.
type IOCKind string

// Indicator kinds emitted by extraction.
const (
	IOCDomain   IOCKind = "domain"
	IOCFileName IOCKind = "filename"
	IOCFilePath IOCKind = "filepath"
	IOCRegistry IOCKind = "registry"
	IOCYaraRule IOCKind = "yara-rule"
)

// IOC is one indicator with its provenance.
type IOC struct {
	Kind   IOCKind
	Value  string
	Source string // "static" or "sandbox"
}

// IOCReport is the deliverable of a dissection: the machine-consumable
// indicator list the paper's vendor reports ended with.
type IOCReport struct {
	Sample string
	IOCs   []IOC
}

// ExtractIOCs merges indicators from a static report and (optionally) a
// sandbox behaviour report, de-duplicated and sorted.
func ExtractIOCs(static *StaticReport, behaviour *BehaviorReport) *IOCReport {
	rep := &IOCReport{}
	seen := map[string]bool{}
	add := func(kind IOCKind, value, source string) {
		value = strings.TrimSpace(value)
		if value == "" {
			return
		}
		key := string(kind) + "|" + strings.ToLower(value)
		if seen[key] {
			return
		}
		seen[key] = true
		rep.IOCs = append(rep.IOCs, IOC{Kind: kind, Value: value, Source: source})
	}

	if static != nil {
		rep.Sample = static.Name
		add(IOCFileName, static.Name, "static")
		for _, s := range static.Strings {
			low := strings.ToLower(s)
			switch {
			case strings.HasPrefix(low, "www.") || strings.Contains(low, ".com"):
				add(IOCDomain, s, "static")
			case strings.Contains(low, `\`):
				add(IOCFilePath, s, "static")
			case strings.Contains(low, ".exe") || strings.Contains(low, ".dll") ||
				strings.Contains(low, ".sys") || strings.Contains(low, ".ocx") ||
				strings.Contains(low, ".inf"):
				add(IOCFileName, s, "static")
			}
		}
		for _, res := range static.Resources {
			if res.DecryptsToImage && res.NestedName != "" {
				add(IOCFileName, res.NestedName, "static")
			}
		}
		for _, hit := range static.YaraHits {
			add(IOCYaraRule, hit, "static")
		}
	}
	if behaviour != nil {
		if rep.Sample == "" {
			rep.Sample = behaviour.Sample
		}
		for _, d := range behaviour.DomainsContacted {
			add(IOCDomain, d, "sandbox")
		}
		for _, f := range behaviour.FilesCreated {
			add(IOCFilePath, f, "sandbox")
		}
		for _, s := range behaviour.ServicesCreated {
			add(IOCRegistry, s, "sandbox")
		}
	}

	sort.Slice(rep.IOCs, func(i, j int) bool {
		if rep.IOCs[i].Kind != rep.IOCs[j].Kind {
			return rep.IOCs[i].Kind < rep.IOCs[j].Kind
		}
		return rep.IOCs[i].Value < rep.IOCs[j].Value
	})
	return rep
}

// ByKind returns the indicator values of one kind.
func (r *IOCReport) ByKind(kind IOCKind) []string {
	var out []string
	for _, ioc := range r.IOCs {
		if ioc.Kind == kind {
			out = append(out, ioc.Value)
		}
	}
	return out
}

// Render produces the indicator list, one per line.
func (r *IOCReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== IOCs for %s (%d indicators)\n", r.Sample, len(r.IOCs))
	for _, ioc := range r.IOCs {
		fmt.Fprintf(&b, "  %-9s %-60s [%s]\n", ioc.Kind, ioc.Value, ioc.Source)
	}
	return b.String()
}

// MatchPaths reports which of the given paths contain any filename/path
// indicator from the report — the fleet-hunting primitive.
func (r *IOCReport) MatchPaths(paths []string) []string {
	var needles []string
	for _, ioc := range r.IOCs {
		if ioc.Kind == IOCFileName || ioc.Kind == IOCFilePath {
			needles = append(needles, strings.ToLower(ioc.Value))
		}
	}
	var out []string
	for _, p := range paths {
		low := strings.ToLower(p)
		for _, n := range needles {
			if strings.Contains(low, n) || strings.Contains(n, low) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}
