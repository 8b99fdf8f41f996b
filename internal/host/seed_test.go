package host

import (
	"testing"

	"repro/internal/sim"
)

// TestSeedDocumentsReportsEveryFailedWrite: a document that cannot be
// written must be counted, not silently dropped from the corpus. The
// test seeds, locks the corpus read-only, rewinds the host stream and
// seeds again; the replayed draws pick exactly the same paths, so every
// write fails, in both seeding modes.
func TestSeedDocumentsReportsEveryFailedWrite(t *testing.T) {
	for _, eager := range []bool{false, true} {
		h := New(sim.NewKernel(sim.WithSeed(1)), "WS", WithEagerDocs(eager))
		pre := h.RNG.State()
		if _, failed := h.SeedDocumentsSized("u", 3, 4096); failed != 0 {
			t.Fatalf("eager=%v: %d documents failed on a fresh host", eager, failed)
		}
		var paths []string
		h.FS.Walk(`C:\Users`, func(f *FileNode) bool { paths = append(paths, f.Path); return true })
		if len(paths) != 3 {
			t.Fatalf("eager=%v: seeded %d documents, want 3", eager, len(paths))
		}
		for _, p := range paths {
			if err := h.FS.Write(p, nil, AttrReadOnly, h.K.Now()); err != nil {
				t.Fatal(err)
			}
		}
		h.RNG = sim.NewRNG(pre)
		if total, failed := h.SeedDocumentsSized("u", 3, 4096); failed != 3 || total != 0 {
			t.Fatalf("eager=%v: reseeding a read-only corpus reported %d failed, %d bytes; want 3 failed, 0 bytes",
				eager, failed, total)
		}
	}
}
