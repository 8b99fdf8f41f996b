package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/malware"
	"repro/internal/malware/shamoon"
	"repro/internal/netsim"
	"repro/internal/pe"
	"repro/internal/users"
)

// c7Fingerprint runs a reduced C7 in the given seeding mode, and
// flattens everything observable — the rendered report, every metric,
// and the full obs snapshot — into one comparable string.
func c7Fingerprint(t *testing.T, eager bool) string {
	t.Helper()
	opts := C7Options(300)
	opts.EagerDocs = eager
	res, err := RunAramcoFleet(7, opts)
	if err != nil {
		t.Fatalf("RunAramcoFleet(eager=%v): %v", eager, err)
	}
	obsJSON, err := json.Marshal(res.Obs)
	if err != nil {
		t.Fatalf("marshal obs: %v", err)
	}
	return res.Render() + "\n" + string(obsJSON)
}

// TestEagerLazySeedingEquivalence: materialising document bytes at seeding
// time versus on first read must not change a single observable byte of a
// full campaign run.
func TestEagerLazySeedingEquivalence(t *testing.T) {
	lazy := c7Fingerprint(t, false)
	eager := c7Fingerprint(t, true)
	if lazy != eager {
		t.Fatalf("eager/lazy runs diverged:\n--- lazy ---\n%s\n--- eager ---\n%s", lazy, eager)
	}
}

// TestEagerLazyPopulatedDocsEquivalence: in a populated fleet the user
// layer writes documents as the run goes, on top of the seeded ones.
// Every file under C:\Users must hold the same bytes whether document
// content was materialised at write time or is generated on first read.
func TestEagerLazyPopulatedDocsEquivalence(t *testing.T) {
	userFiles := func(eager bool) map[string][]byte {
		opts := C7Options(60)
		opts.Activity = users.MixOffice
		opts.EagerDocs = eager
		f, err := BuildAramcoFleet(3, opts)
		if err != nil {
			t.Fatal(err)
		}
		f.RunUntil(shamoon.AramcoTrigger.Add(-12 * time.Hour))
		files := make(map[string][]byte)
		for _, sc := range f.Sites {
			if sc.Users == nil || sc.Users.Stats.DocWrites == 0 {
				t.Fatalf("eager=%v: site %s wrote no user documents", eager, sc.LAN.Name)
			}
			for _, h := range sc.Hosts {
				h.FS.Walk(`C:\Users`, func(n *host.FileNode) bool {
					files[h.Name+"|"+n.Path] = n.Bytes()
					return true
				})
			}
		}
		return files
	}
	lazy, eager := userFiles(false), userFiles(true)
	if len(lazy) != len(eager) {
		t.Fatalf("lazy fleet holds %d user files, eager %d", len(lazy), len(eager))
	}
	differ := 0
	for path, want := range lazy {
		if !bytes.Equal(eager[path], want) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d user files differ between eager and lazy documents", differ, len(lazy))
	}
}

// TestAddHostsStreamsFollowAnchor pins the RNG derivation of AddHosts:
// every call forks one anchor from the kernel stream, and host i of the
// call gets ForkAt(i) of that anchor. The oracle replays the derivation
// on an identically seeded world.
func TestAddHostsStreamsFollowAnchor(t *testing.T) {
	newWorld := func() (*World, *netsim.LAN) {
		w, err := NewWorld(WorldConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return w, w.NewLAN("l", "10.0.0", false)
	}
	w, lan := newWorld()
	batches := [][]*host.Host{
		w.AddHosts(lan, hostNames("A", 20)),
		w.AddHosts(lan, hostNames("B", 5)),
	}
	oracle, _ := newWorld()
	for b, hosts := range batches {
		anchor := oracle.K.RNG().Fork()
		for i, h := range hosts {
			if got, want := h.RNG.State(), anchor.ForkAt(uint64(i)).State(); got != want {
				t.Fatalf("batch %d host %s: RNG state %#x, want ForkAt(%d) of the call's anchor, %#x",
					b, h.Name, got, i, want)
			}
		}
	}
	if got, want := w.K.RNG().State(), oracle.K.RNG().State(); got != want {
		t.Fatalf("kernel stream at %#x after two AddHosts calls, want one fork per call (%#x)", got, want)
	}
}

// TestSetExtraMakesMapOnFirstWrite: a host's implant Extra is nil until
// SetExtra writes to it, the value then reaches that host's implant Env,
// and a write for a host the world does not have is dropped.
func TestSetExtraMakesMapOnFirstWrite(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hosts := w.AddHosts(w.NewLAN("l", "10.0.0", false), hostNames("WS", 2))
	w.SetExtra("WS-01", malware.ExtraStep7, "s7")
	w.SetExtra("NOPE", malware.ExtraStep7, "s7")
	if got := w.Registry.EnvFor(hosts[0]).Extra[malware.ExtraStep7]; got != "s7" {
		t.Fatalf("WS-01 Extra[%q] = %v, want s7", malware.ExtraStep7, got)
	}
	if extra := w.Registry.EnvFor(hosts[1]).Extra; extra != nil {
		t.Fatalf("WS-02 Extra = %v, want nil: nothing was set on it", extra)
	}
	if _, ok := w.extra["NOPE"]; ok {
		t.Fatal("SetExtra made a map for a host the world does not have")
	}
}

// TestC7ImagesIntactAfterRun: every exec parses a host's trksvr.exe and
// netinit.exe in place (pe.Parse aliases its input), and those files
// alias one campaign buffer fleet-wide. After a reduced C7 run, every
// host's copies must still equal the campaign's marshalled images, so
// nothing wrote through a parsed slice.
func TestC7ImagesIntactAfterRun(t *testing.T) {
	f, err := BuildAramcoFleet(1, C7Options(600))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunUntil(shamoon.AramcoTrigger.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	marshal := func(img *pe.File) []byte {
		raw, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	checked := 0
	for _, sc := range f.Sites {
		main, main64, reporter := marshal(sc.Shamoon.MainImage), marshal(sc.Shamoon.MainImage64), marshal(sc.Shamoon.ReporterImage)
		for _, h := range sc.Hosts {
			trk := main
			if h.Arch == pe.MachineX64 {
				trk = main64
			}
			for path, want := range map[string][]byte{
				host.SystemDir + `\trksvr.exe`:  trk,
				host.SystemDir + `\netinit.exe`: reporter,
			} {
				file, err := h.FS.Read(path)
				if err != nil {
					t.Fatalf("%s: %v", h.Name, err)
				}
				if !bytes.Equal(file.Bytes(), want) {
					t.Fatalf("%s: %s no longer equals the campaign's image", h.Name, path)
				}
				checked++
			}
		}
	}
	if checked != 2*600 {
		t.Fatalf("checked %d files, want %d", checked, 2*600)
	}
}
