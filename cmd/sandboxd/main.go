// Command sandboxd detonates a named synthetic sample in the instrumented
// sandbox (sinkholed internet, decoy documents) and prints the observed
// behaviour report.
//
// Usage:
//
//	sandboxd -sample shamoon -observe 72h
//	sandboxd -sample stuxnet
//	sandboxd -sample flame
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/cnc"
	"repro/internal/malware/flame"
	"repro/internal/malware/shamoon"
	"repro/internal/malware/stuxnet"
	"repro/internal/pe"
	"repro/internal/pki"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sandboxd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sandboxd", flag.ContinueOnError)
	var (
		sample  = fs.String("sample", "shamoon", "sample to detonate: shamoon|stuxnet|flame")
		seed    = fs.Uint64("seed", 1, "deterministic simulation seed")
		observe = fs.Duration("observe", 72*time.Hour, "virtual observation window")
		av      = fs.Bool("av", false, "install the post-disclosure AV before detonation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	sb := analysis.NewSandbox(*seed, analysis.WithDecoyDocs(25))
	if *av {
		rules, err := analysis.CompileDisclosureRules()
		if err != nil {
			return err
		}
		sb.Victim.AddSecurity(analysis.NewSignatureAV("SimAV", rules))
	}

	img, err := buildAndBind(sb, *sample)
	if err != nil {
		return err
	}
	rep := sb.Run(img, *observe)
	fmt.Print(rep.Render())
	return nil
}

// buildAndBind constructs the family inside the sandbox kernel and binds
// its behaviours into the sandbox registry.
func buildAndBind(sb *analysis.Sandbox, sample string) (*pe.File, error) {
	var rootSeed, keySeed [32]byte
	rootSeed[0], keySeed[0] = 101, 102
	now := sb.K.Now()
	root := pki.NewRoot("SimTrust Root CA", pki.HashStrong, rootSeed, now.Add(-time.Hour), 100*365*24*time.Hour)
	sb.Victim.CertStore.AddRoot(root.Cert)
	vendorKey := pki.NewKeypair(keySeed)

	switch sample {
	case "shamoon":
		cert, err := root.Issue(now, pki.IssueRequest{
			Subject: "Eldos Corporation", Usages: pki.UsageDriverSign,
			Lifetime: 10 * 365 * 24 * time.Hour, PubKey: vendorKey.Public,
		})
		if err != nil {
			return nil, err
		}
		sh, err := shamoon.Build(sb.K, shamoon.Config{
			TriggerAt:      now.Add(24 * time.Hour),
			ReporterDomain: "home.attacker.example",
			DriverKey:      vendorKey,
			DriverCert:     cert,
		})
		if err != nil {
			return nil, err
		}
		sh.BindTo(sb.Registry)
		return sh.MainImage, nil
	case "stuxnet":
		cert, err := root.Issue(now, pki.IssueRequest{
			Subject: "Realtek Semiconductor Corp", Usages: pki.UsageDriverSign,
			Lifetime: 10 * 365 * 24 * time.Hour, PubKey: vendorKey.Public,
		})
		if err != nil {
			return nil, err
		}
		sx, err := stuxnet.Build(sb.K, stuxnet.Config{
			DriverKey:   vendorKey,
			DriverCerts: []*pki.Certificate{cert},
			BeaconEvery: 6 * time.Hour,
		})
		if err != nil {
			return nil, err
		}
		sx.BindTo(sb.Registry)
		return sx.MainImage, nil
	case "flame":
		center, err := cnc.NewAttackCenter(sb.K, sb.Internet, 5, 1)
		if err != nil {
			return nil, err
		}
		fl, err := flame.Build(sb.K, flame.Config{Center: center, BeaconEvery: 2 * time.Hour})
		if err != nil {
			return nil, err
		}
		fl.BindTo(sb.Registry)
		return fl.MainImage, nil
	default:
		return nil, fmt.Errorf("unknown sample %q", sample)
	}
}
