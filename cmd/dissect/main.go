// Command dissect builds a named synthetic sample and prints its static
// dissection: sections with entropy, imports, encrypted-resource analysis
// with recovered XOR keys, signature verdicts, and YARA hits.
//
// Usage:
//
//	dissect -sample shamoon            # TrkSvr.exe
//	dissect -sample shamoon-driver     # the Eldos-signed raw-disk driver
//	dissect -sample stuxnet            # the worm body
//	dissect -sample stuxnet-driver     # a stolen-cert rootkit driver
//	dissect -sample flame              # mssecmgr.ocx
//	dissect -sample flame-update       # the forged-signature fake update
//	dissect -sample duqu               # the spear-phish dropper
//	dissect -sample gauss              # winshell.ocx with the Godel payload
//	dissect -compare                   # code-lineage matrix across families
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/cnc"
	"repro/internal/core"
	"repro/internal/malware/duqu"
	"repro/internal/malware/flame"
	"repro/internal/malware/gauss"
	"repro/internal/malware/shamoon"
	"repro/internal/malware/stuxnet"
	"repro/internal/pe"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dissect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dissect", flag.ContinueOnError)
	var (
		sample  = fs.String("sample", "shamoon", "sample to build and dissect")
		seed    = fs.Uint64("seed", 1, "deterministic simulation seed")
		compare = fs.Bool("compare", false, "print the code-lineage similarity matrix across all five families")
		iocs    = fs.Bool("iocs", false, "also print the extracted indicator list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	w, err := core.NewWorld(core.WorldConfig{Seed: *seed})
	if err != nil {
		return err
	}
	if *compare {
		return runCompare(w)
	}
	img, err := buildSample(w, *sample)
	if err != nil {
		return err
	}

	rules, err := analysis.CompileDisclosureRules()
	if err != nil {
		return err
	}
	an := &analysis.Analyzer{Store: w.PKI.BaseStore, Rules: rules}
	rep, err := an.Analyze(img, w.K.Now())
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	if *iocs {
		fmt.Print(analysis.ExtractIOCs(rep, nil).Render())
	}
	return nil
}

// runCompare builds one sample per family and prints the lineage matrix.
func runCompare(w *core.World) error {
	var imgs []*pe.File
	for _, name := range []string{"stuxnet", "duqu", "flame", "gauss", "shamoon"} {
		img, err := buildSample(w, name)
		if err != nil {
			return err
		}
		imgs = append(imgs, img)
	}
	m := analysis.CompareSamples(imgs...)
	fmt.Print(m.Render())
	fmt.Println("\nlineage: stuxnet<->duqu share the Tilded platform; flame<->gauss share the Flamer platform; shamoon shares nothing")
	return nil
}

func buildSample(w *core.World, name string) (*pe.File, error) {
	switch name {
	case "shamoon", "shamoon-driver":
		sh, err := shamoon.Build(w.K, shamoon.Config{
			ReporterDomain: "home.example",
			DriverKey:      w.PKI.EldosKey,
			DriverCert:     w.PKI.EldosCert,
		})
		if err != nil {
			return nil, err
		}
		if name == "shamoon-driver" {
			return sh.RawDiskDriver, nil
		}
		return sh.MainImage, nil
	case "stuxnet", "stuxnet-driver":
		sx, err := stuxnet.Build(w.K, stuxnet.Config{
			DriverKey:   w.PKI.StolenKey,
			DriverCerts: []*pkiCert{w.PKI.RealtekCert, w.PKI.JMicronCert},
		})
		if err != nil {
			return nil, err
		}
		if name == "stuxnet-driver" {
			return sx.Drivers[0], nil
		}
		return sx.MainImage, nil
	case "flame", "flame-update":
		if err := w.ForgeUpdateCert(); err != nil {
			return nil, err
		}
		// A minimal attack center just to satisfy the build dependency.
		center, err := newMiniCenter(w)
		if err != nil {
			return nil, err
		}
		fl, err := flame.Build(w.K, flame.Config{
			Center:        center,
			UpdateSignKey: w.PKI.AttackerKey,
			UpdateChain:   w.PKI.ForgedChain(),
		})
		if err != nil {
			return nil, err
		}
		if name == "flame-update" {
			return fl.FakeUpdate, nil
		}
		return fl.MainImage, nil
	case "duqu":
		seal, err := cnc.NewSealKeypair(w.K.RNG())
		if err != nil {
			return nil, err
		}
		d, err := duqu.Build(w.K, duqu.Config{
			Targets:    []string{"TARGET"},
			C2Domain:   "images.cdn.example",
			SealPub:    seal.Public,
			DriverKey:  w.PKI.StolenKey,
			DriverCert: w.PKI.JMicronCert,
		})
		if err != nil {
			return nil, err
		}
		return d.Dropper, nil
	case "gauss":
		center, err := newMiniCenter(w)
		if err != nil {
			return nil, err
		}
		g, err := gauss.Build(w.K, gauss.Config{Center: center, GodelTargetDir: "CascadeSCADA"})
		if err != nil {
			return nil, err
		}
		return g.MainImage, nil
	default:
		return nil, fmt.Errorf("unknown sample %q", name)
	}
}
