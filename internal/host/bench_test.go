package host

import (
	"testing"

	"repro/internal/pe"
	"repro/internal/pki"
	"repro/internal/sim"
)

// benchSeed seeds a fresh host per iteration, so the numbers cover the
// full corpus-construction path: folder/name draws, FileNode churn, and —
// in eager mode only — materialising every document's bytes.
func benchSeed(b *testing.B, docs, size int, eager bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New(sim.NewKernel(sim.WithSeed(uint64(1+i))), "WS", WithEagerDocs(eager))
		if _, failed := h.SeedDocumentsSized("u", docs, size); failed != 0 {
			b.Fatalf("%d documents failed to seed", failed)
		}
	}
}

// BenchmarkSeedDocumentsLazy is the default corpus path: documents carry a
// content descriptor (seed, length) and no bytes until first read.
func BenchmarkSeedDocumentsLazy(b *testing.B) { benchSeed(b, 50, 64*1024, false) }

// BenchmarkSeedDocumentsEager materialises every document at seeding time;
// the delta against the lazy bench is the allocation win of §9.
func BenchmarkSeedDocumentsEager(b *testing.B) { benchSeed(b, 50, 64*1024, true) }

// BenchmarkCheckWipeLazy scans a seeded-but-unread corpus for the JPEG
// overwrite marker. Prefix-only reads must not materialise the documents.
func BenchmarkCheckWipeLazy(b *testing.B) {
	h := New(sim.NewKernel(sim.WithSeed(7)), "WS")
	if _, failed := h.SeedDocumentsSized("u", 200, 64*1024); failed != 0 {
		b.Fatalf("%d documents failed to seed", failed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chk := h.CheckWipe(); chk.FilesWiped != 0 {
			b.Fatalf("unexpected wipe scan: %+v", chk)
		}
	}
	h.FS.Walk(`C:\Users`, func(f *FileNode) bool {
		if f.Materialized() {
			b.Fatalf("CheckWipe materialised %s", f.Path)
		}
		return true
	})
}

// BenchmarkExecuteFileShared prices one exec of a 200 KiB image from a
// shared FS node, the fleet's exec path (DESIGN.md §9 item 6). In hit the
// world's memo already holds the digest; in miss every exec runs on a
// fresh store, so it parses, hashes and records the image. Each process
// is dropped after its exec, so the table stays small at any b.N.
func BenchmarkExecuteFileShared(b *testing.B) {
	const path = `C:\Windows\System32\trksvr.exe`
	img := &pe.File{Name: "trksvr.exe", Machine: pe.MachineX86,
		Sections: []pe.Section{{Name: ".text", Characteristics: pe.SecCode, Data: make([]byte, 200<<10)}}}
	raw, err := img.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	h := New(sim.NewKernel(sim.WithSeed(7)), "WS")
	if err := h.FS.WriteShared(path, raw, 0, t0); err != nil {
		b.Fatal(err)
	}
	exec := func(b *testing.B) {
		p, err := h.ExecuteFile(path, true)
		if err != nil {
			b.Fatal(err)
		}
		delete(h.procs, p.PID)
	}
	b.Run("hit", func(b *testing.B) {
		exec(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec(b)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h.CertStore = pki.NewStore()
			b.StartTimer()
			exec(b)
		}
	})
}
