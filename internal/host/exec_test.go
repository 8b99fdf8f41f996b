package host

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pe"
	"repro/internal/pki"
)

// TestExecuteDigestFollowsImageMutation: Execute digests the image it is
// handed on every call, so a change to an in-memory image between two
// execs shows in the second process's digest.
func TestExecuteDigestFollowsImageMutation(t *testing.T) {
	h := New(testKernel(), "WS-001")
	img := testImage("tool.exe")
	first, err := h.Execute(img, false)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	img.Sections[0].Data[0] ^= 0xFF
	second, err := h.Execute(img, false)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if first.Digest == second.Digest {
		t.Fatal("digest unchanged after the image was mutated between execs")
	}
	if second.Digest != img.MustDigest() {
		t.Fatal("second exec's digest is not the mutated image's digest")
	}
}

// execDigest runs the image at path on h and returns the process digest.
func execDigest(t *testing.T, h *Host, path string) [32]byte {
	t.Helper()
	p, err := h.ExecuteFile(path, false)
	if err != nil {
		t.Fatalf("ExecuteFile %s on %s: %v", path, h.Name, err)
	}
	return p.Digest
}

// marshal returns img's encoding.
func marshal(t testing.TB, img *pe.File) []byte {
	t.Helper()
	raw, err := img.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return raw
}

// TestExecuteFileDigestFollowsRewrite: two hosts built, as a world builds
// them, on clones of one trust store share the store's digest memo
// (DESIGN.md §9 item 6), so a shared image is hashed once between them.
// pe.Parse aliases the file bytes it executes, and the memo serves only
// nodes still in the shared state, so the next ExecuteFile must see a
// rewrite of the host's own copy, whether it is replaced through FS.Write
// or changed in place through MutableBytes, and must see it again when
// the now-owned copy changes in place a second time. A sibling whose
// file still aliases the shared buffer keeps the old digest, and the
// buffer itself never changes.
func TestExecuteFileDigestFollowsRewrite(t *testing.T) {
	const path = `C:\Windows\System32\trksvr.exe`
	img := testImage("trksvr.exe")
	shared := marshal(t, img)
	pristine := bytes.Clone(shared)
	at := bytes.Index(shared, img.Sections[0].Data) // first payload byte
	old := img.MustDigest()

	k := testKernel()
	base := pki.NewStore()
	h := New(k, "WS-001", WithCertStore(base.Clone()))
	sibling := New(k, "WS-002", WithCertStore(base.Clone()))
	for _, x := range []*Host{h, sibling} {
		if err := x.FS.WriteShared(path, shared, 0, t0); err != nil {
			t.Fatalf("WriteShared: %v", err)
		}
	}
	if execDigest(t, h, path) != old {
		t.Fatal("the first exec of a shared buffer is not its image's digest")
	}
	for i := 0; i < 2; i++ {
		if execDigest(t, sibling, path) != old {
			t.Fatalf("sibling exec %d: the memo's digest is not the image's", i+1)
		}
	}

	rewrites := []struct {
		name    string
		rewrite func() error
	}{
		{"FS.Write", func() error {
			changed := bytes.Clone(shared)
			changed[at] ^= 0xFF
			return h.FS.Write(path, changed, 0, t0)
		}},
		{"MutableBytes", func() error {
			f, err := h.FS.Read(path)
			if err != nil {
				return err
			}
			f.MutableBytes()[at] ^= 0xFF
			return nil
		}},
	}
	for _, rw := range rewrites {
		if err := h.FS.WriteShared(path, shared, 0, t0); err != nil {
			t.Fatalf("%s: WriteShared: %v", rw.name, err)
		}
		if execDigest(t, h, path) != old {
			t.Fatalf("%s: digest moved before the rewrite", rw.name)
		}
		if err := rw.rewrite(); err != nil {
			t.Fatalf("%s: %v", rw.name, err)
		}
		f, err := h.FS.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		changed, err := pe.Parse(bytes.Clone(f.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := execDigest(t, h, path); got == old || got != changed.MustDigest() {
			t.Errorf("%s: the rewritten host does not execute the new digest", rw.name)
		}
		// The node is owned now: flipping the byte back in place, at the
		// same address and length, must show in the next exec too.
		f.MutableBytes()[at] ^= 0xFF
		if execDigest(t, h, path) != old {
			t.Errorf("%s: an in-place change of the owned copy did not show", rw.name)
		}
		if execDigest(t, sibling, path) != old {
			t.Errorf("%s: the sibling's digest changed", rw.name)
		}
		if !bytes.Equal(shared, pristine) {
			t.Fatalf("%s: the shared buffer changed", rw.name)
		}
	}
}

// TestExecuteFileSharedBuffersKeepTheirIdentity: the memo keys on a
// buffer, not on its content, so two buffers with equal bytes and two
// images packed back to back in one array each execute their own image's
// digest. The whole array, which is not one image, and a buffer with a
// bad magic fail every exec with the parse error they failed with before
// the memo.
func TestExecuteFileSharedBuffersKeepTheirIdentity(t *testing.T) {
	const path = `C:\Windows\System32\netinit.exe`
	a, b := testImage("trksvr.exe"), testImage("netinit.exe")
	rawA, rawB := marshal(t, a), marshal(t, b)
	packed := append(bytes.Clone(rawA), rawB...)
	cases := []struct {
		name string
		buf  []byte
		want [32]byte
	}{
		{"buffer", rawA, a.MustDigest()},
		{"equal bytes, another buffer", bytes.Clone(rawA), a.MustDigest()},
		{"first image of an array", packed[:len(rawA)], a.MustDigest()},
		{"second image of the array", packed[len(rawA):], b.MustDigest()},
	}
	k := testKernel()
	base := pki.NewStore()
	for i, c := range cases {
		h := New(k, fmt.Sprintf("WS-%03d", i+1), WithCertStore(base.Clone()))
		if err := h.FS.WriteShared(path, c.buf, 0, t0); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			if execDigest(t, h, path) != c.want {
				t.Errorf("%s, exec %d: wrong digest", c.name, run+1)
			}
		}
	}

	bad := bytes.Clone(rawA)
	bad[0] = 'X'
	for i, buf := range [][]byte{packed, bad} {
		_, parseErr := pe.Parse(buf)
		if parseErr == nil {
			t.Fatalf("unparseable buffer %d parsed", i)
		}
		h := New(k, fmt.Sprintf("WS-9%02d", i), WithCertStore(base.Clone()))
		if err := h.FS.WriteShared(path, buf, 0, t0); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("execute %s: %v", path, parseErr)
		for run := 0; run < 2; run++ {
			if _, err := h.ExecuteFile(path, false); err == nil || err.Error() != want {
				t.Errorf("unparseable buffer %d, exec %d: err = %v, want %s", i, run+1, err, want)
			}
		}
	}
}

// TestExecuteFileSharedHitAllocs: a memo hit skips Digest, which
// allocates its hash state and scratch on every call, so an exec of a
// shared node allocates less than an exec of an owned copy of the same
// bytes, which hashes. Each host starts from one exec, so both process
// tables grow alike.
func TestExecuteFileSharedHitAllocs(t *testing.T) {
	const path = `C:\Windows\System32\trksvr.exe`
	raw := marshal(t, testImage("trksvr.exe"))
	k := testKernel()
	shared, owned := New(k, "WS-001"), New(k, "WS-002")
	if err := shared.FS.WriteShared(path, raw, 0, t0); err != nil {
		t.Fatal(err)
	}
	if err := owned.FS.Write(path, raw, 0, t0); err != nil {
		t.Fatal(err)
	}
	allocs := func(h *Host) float64 {
		execDigest(t, h, path)
		return testing.AllocsPerRun(50, func() {
			if _, err := h.ExecuteFile(path, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	hit, hashed := allocs(shared), allocs(owned)
	t.Logf("ExecuteFile allocs: shared hit %v, owned %v", hit, hashed)
	if hit >= hashed {
		t.Fatalf("a memo hit allocates %v times, an exec that hashes %v; want fewer", hit, hashed)
	}
}

// TestExecuteFileSharedConcurrentWorlds runs two worlds' execs on two
// goroutines, for the race detector. Their hosts clone one base store,
// the case the memo's lock exists for (DESIGN.md §9 item 7), and run the
// same two shared images, so the two goroutines fill and read one memo.
func TestExecuteFileSharedConcurrentWorlds(t *testing.T) {
	imgs := []*pe.File{testImage("trksvr.exe"), testImage("wiper.exe")}
	paths := []string{`C:\Windows\System32\trksvr.exe`, `C:\Windows\System32\wiper.exe`}
	raws := [][]byte{marshal(t, imgs[0]), marshal(t, imgs[1])}
	wants := [][32]byte{imgs[0].MustDigest(), imgs[1].MustDigest()}
	base := pki.NewStore()
	const worlds, hosts = 2, 8
	fleets := make([][]*Host, worlds)
	for w := range fleets {
		k := testKernel()
		for i := 0; i < hosts; i++ {
			h := New(k, fmt.Sprintf("W%d-%02d", w, i), WithCertStore(base.Clone()))
			for j, p := range paths {
				if err := h.FS.WriteShared(p, raws[j], 0, t0); err != nil {
					t.Fatal(err)
				}
			}
			fleets[w] = append(fleets[w], h)
		}
	}
	errs := make([]error, worlds)
	var wg sync.WaitGroup
	for w, fleet := range fleets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, h := range fleet {
				for j, p := range paths {
					proc, err := h.ExecuteFile(p, true)
					if err == nil && proc.Digest != wants[j] {
						err = fmt.Errorf("%s %s: wrong digest", h.Name, p)
					}
					if err != nil {
						errs[w] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", w, err)
		}
	}
}
