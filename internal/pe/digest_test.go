package pe

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// digestCases are images at the edges of the hashing encoder: names at
// the 255-byte limit, an import of 1,024 such names (many scratch
// flushes in one run of fixed fields), payloads either side of the
// scratch size, empty and nil payloads, and a signature blob.
func digestCases() map[string]*File {
	long := strings.Repeat("n", maxNameLen)
	funcs := make([]string, maxFunctions)
	for i := range funcs {
		funcs[i] = fmt.Sprintf("%s%04d", long[:maxNameLen-4], i)
	}
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	signed := sampleFile()
	signed.SigBlob = []byte("opaque pki attachment")
	return map[string]*File{
		"sample": sampleFile(),
		"signed": signed,
		"zero":   {},
		"255-byte names": {
			Name:      long,
			Sections:  []Section{{Name: long, Data: []byte("x")}},
			Imports:   []Import{{Library: long, Functions: []string{long, long}}},
			Resources: []Resource{{ID: 1, Raw: []byte(long)}},
		},
		"1,024 functions": {
			Name:    "imports.exe",
			Imports: []Import{{Library: "kernel32.dll", Functions: funcs}},
		},
		"empty and nil payloads": {
			Name:      "empty.exe",
			Sections:  []Section{{Name: ".nil"}, {Name: ".empty", Data: []byte{}}},
			Resources: []Resource{{ID: 1}, {ID: 2, Raw: []byte{}}},
			SigBlob:   []byte{},
		},
		"payloads around the scratch size": {
			Name: "scratch.exe",
			Sections: []Section{
				{Name: ".a", Data: payload(digestScratch - 1)},
				{Name: ".b", Data: payload(digestScratch)},
				{Name: ".c", Data: payload(digestScratch + 1)},
				{Name: ".d", Data: payload(1 << 20)},
			},
			Resources: []Resource{{ID: 7, Raw: payload(3)}, {ID: 8, Raw: payload(2 * digestScratch)}},
			SigBlob:   payload(100),
		},
	}
}

// TestDigestMatchesMarshal pins that Digest, which hashes as it encodes,
// equals the SHA-256 of the signature-free Marshal output, and that Size
// equals the length of the full encoding.
func TestDigestMatchesMarshal(t *testing.T) {
	for name, f := range digestCases() {
		t.Run(name, func(t *testing.T) {
			unsigned := *f
			unsigned.SigBlob = nil
			raw, err := unsigned.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := f.Digest()
			if err != nil {
				t.Fatalf("Digest: %v", err)
			}
			if want := sha256.Sum256(raw); got != want {
				t.Fatalf("Digest = %x, want SHA-256 of the unsigned encoding %x", got, want)
			}
			full, err := f.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if f.Size() != len(full) {
				t.Fatalf("Size = %d, encoded length = %d", f.Size(), len(full))
			}
		})
	}
}

// TestInvalidImagesFailEverywhere pins that Digest, Marshal and Size
// reject the same images with the same errors: Digest and Marshal fail,
// Size returns 0. The 128 MiB bound is checked before anything is
// encoded, and Digest applies it to the image without its signature.
func TestInvalidImagesFailEverywhere(t *testing.T) {
	section := make([]byte, maxSectionLen)
	cases := []struct {
		name string
		f    *File
		want string
	}{
		{"too many sections", &File{Name: "many.exe", Sections: make([]Section, maxSections+1)},
			"pe: too many sections (65)"},
		{"oversize name", &File{Name: strings.Repeat("x", maxNameLen+1)},
			"pe: image name too long (256)"},
		{"over 128 MiB", &File{Name: "big.exe", Sections: []Section{{Data: section}, {Data: section}}},
			`pe: image "big.exe" exceeds 134217728 bytes`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.f.Digest(); err == nil || err.Error() != tc.want {
				t.Errorf("Digest err = %v, want %q", err, tc.want)
			}
			if _, err := tc.f.Marshal(); err == nil || err.Error() != tc.want {
				t.Errorf("Marshal err = %v, want %q", err, tc.want)
			}
			if n := tc.f.Size(); n != 0 {
				t.Errorf("Size = %d, want 0", n)
			}
		})
	}

	// The signature blob alone takes this image over the limit: Marshal
	// and Size refuse it, Digest, which covers the image without its
	// signature, does not.
	f := &File{Name: "edge.exe", Sections: []Section{{Data: section}, {Data: section[:maxSectionLen-64]}}}
	f.SigBlob = make([]byte, 100)
	if _, err := f.Marshal(); err == nil {
		t.Error("Marshal accepted an image whose signature takes it over the limit")
	}
	if n := f.Size(); n != 0 {
		t.Errorf("Size = %d, want 0", n)
	}
	if _, err := f.Digest(); err != nil {
		t.Errorf("Digest: %v", err)
	}
}

// bytesPerRun is the mean heap bytes one call of fn allocates, measured
// after a warm-up call at GOMAXPROCS 1 as testing.AllocsPerRun is.
func bytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestImageCostIndependentOfSize pins the constant cost of one image
// execution: Digest and Parse make the same number of allocations on a
// 5 KB and on a 1 MB image, and neither allocates anything that grows
// with the image. Marshal stays at its one exactly sized allocation.
func TestImageCostIndependentOfSize(t *testing.T) {
	small, large := benchImage(5<<10), benchImage(1<<20)
	digest := func(f *File) func() {
		return func() {
			if _, err := f.Digest(); err != nil {
				t.Fatal(err)
			}
		}
	}
	parse := func(f *File) func() {
		raw, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := Parse(raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, op := range []struct {
		name         string
		small, large func()
	}{
		{"Digest", digest(small), digest(large)},
		{"Parse", parse(small), parse(large)},
	} {
		s, l := testing.AllocsPerRun(20, op.small), testing.AllocsPerRun(20, op.large)
		if s != l {
			t.Errorf("%s: %v allocations on a 5 KB image, %v on a 1 MB image", op.name, s, l)
		}
		if b := bytesPerRun(20, op.large); b >= 4<<10 {
			t.Errorf("%s allocates %d bytes per call on a 1 MB image, want under 4 KiB", op.name, b)
		}
	}
	marshal := func() {
		if _, err := large.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(5, marshal); n != 1 {
		t.Errorf("Marshal makes %v allocations, want 1", n)
	}
}
