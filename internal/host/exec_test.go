package host

import (
	"bytes"
	"testing"
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

// TestExecuteFileDigestFollowsRewrite: pe.Parse aliases the file bytes it
// executes, so the next ExecuteFile must see a rewrite of the host's own
// copy of a shared image, whether it is replaced through FS.Write or
// changed in place through MutableBytes. A sibling host whose file still
// aliases the shared buffer keeps the old digest, and the buffer itself
// never changes.
func TestExecuteFileDigestFollowsRewrite(t *testing.T) {
	const path = `C:\Windows\System32\trksvr.exe`
	img := testImage("trksvr.exe")
	shared, err := img.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	pristine := bytes.Clone(shared)
	at := bytes.Index(shared, img.Sections[0].Data) // first payload byte

	k := testKernel()
	h, sibling := New(k, "WS-001"), New(k, "WS-002")
	digest := func(h *Host) [32]byte {
		t.Helper()
		p, err := h.ExecuteFile(path, false)
		if err != nil {
			t.Fatalf("ExecuteFile on %s: %v", h.Name, err)
		}
		return p.Digest
	}
	for _, x := range []*Host{h, sibling} {
		if err := x.FS.WriteShared(path, shared, 0, t0); err != nil {
			t.Fatalf("WriteShared: %v", err)
		}
	}
	old := digest(h)
	if digest(sibling) != old {
		t.Fatal("two hosts sharing one buffer disagree on its digest")
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
		if digest(h) != old {
			t.Fatalf("%s: digest moved before the rewrite", rw.name)
		}
		if err := rw.rewrite(); err != nil {
			t.Fatalf("%s: %v", rw.name, err)
		}
		if digest(h) == old {
			t.Errorf("%s: the rewritten host still executes the old digest", rw.name)
		}
		if digest(sibling) != old {
			t.Errorf("%s: the sibling's digest changed", rw.name)
		}
		if !bytes.Equal(shared, pristine) {
			t.Fatalf("%s: the shared buffer changed", rw.name)
		}
	}
}
