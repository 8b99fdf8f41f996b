package analysis

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/malware/platform"
	"repro/internal/pe"
	"repro/internal/sim"
)

func TestJaccardIdentityAndDisjoint(t *testing.T) {
	a := FingerprintData("a", []byte("the quick brown fox jumps over the lazy dog"))
	if got := Jaccard(a, a); got != 1 {
		t.Fatalf("self similarity = %v", got)
	}
	b := FingerprintData("b", []byte("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ!!!!"))
	if got := Jaccard(a, b); got != 0 {
		t.Fatalf("disjoint similarity = %v", got)
	}
	empty := FingerprintData("e", []byte("short"))
	if got := Jaccard(a, empty); got != 0 {
		t.Fatalf("empty similarity = %v", got)
	}
}

func TestJaccardSharedBlock(t *testing.T) {
	k := sim.NewKernel(sim.WithSeed(1))
	shared := platform.Block(platform.Tilded, 32*1024)
	a := append(append([]byte(nil), shared...), k.RNG().Bytes(32*1024)...)
	b := append(append([]byte(nil), shared...), k.RNG().Bytes(32*1024)...)
	c := k.RNG().Bytes(64 * 1024)

	ab := Jaccard(FingerprintData("a", a), FingerprintData("b", b))
	ac := Jaccard(FingerprintData("a", a), FingerprintData("c", c))
	if ab < 0.2 {
		t.Fatalf("shared-block similarity = %v, want substantial", ab)
	}
	if ac > 0.01 {
		t.Fatalf("unrelated similarity = %v, want ~0", ac)
	}
	if ab <= ac {
		t.Fatal("shared block did not dominate")
	}
}

func TestCompareSamplesMatrix(t *testing.T) {
	mk := func(name string, data []byte) *pe.File {
		return &pe.File{Name: name, Machine: pe.MachineX86, Timestamp: sim.Epoch,
			Sections: []pe.Section{{Name: ".text", Data: data}}}
	}
	k := sim.NewKernel(sim.WithSeed(2))
	shared := platform.Block(platform.Flamer, 16*1024)
	m := CompareSamples(
		mk("x.exe", append(append([]byte(nil), shared...), k.RNG().Bytes(8*1024)...)),
		mk("y.exe", append(append([]byte(nil), shared...), k.RNG().Bytes(8*1024)...)),
		mk("z.exe", k.RNG().Bytes(24*1024)),
	)
	if m.Of("x.exe", "x.exe") != 1 {
		t.Fatal("diagonal not 1")
	}
	if m.Of("x.exe", "y.exe") != m.Of("y.exe", "x.exe") {
		t.Fatal("matrix not symmetric")
	}
	if m.Of("x.exe", "y.exe") <= m.Of("x.exe", "z.exe") {
		t.Fatalf("lineage not recovered: xy=%v xz=%v", m.Of("x.exe", "y.exe"), m.Of("x.exe", "z.exe"))
	}
	if m.Of("x.exe", "ghost.exe") != 0 {
		t.Fatal("unknown name should be 0")
	}
	out := m.Render()
	if !strings.Contains(out, "x.exe") || !strings.Contains(out, "1.000") {
		t.Fatalf("render = %s", out)
	}
}

func TestFingerprintOverSections(t *testing.T) {
	img := &pe.File{Name: "multi.exe", Machine: pe.MachineX86, Timestamp: sim.Epoch,
		Sections: []pe.Section{
			{Name: ".text", Data: []byte("section one content here")},
			{Name: ".data", Data: []byte("section two content here")},
		}}
	fp := Fingerprint(img)
	if fp.Size() == 0 || fp.Name != "multi.exe" {
		t.Fatalf("fingerprint = %+v", fp)
	}
}

// refShingles is the map-based fingerprint the sorted slices replaced:
// every window hash of every section in a set, and Jaccard by probing
// the larger set with each hash of the smaller. It is the reference the
// sorted form must match exactly.
type refShingles map[uint64]struct{}

func refFingerprint(sections ...[]byte) refShingles {
	set := refShingles{}
	for _, data := range sections {
		for i := 0; i+shingleLen <= len(data); i++ {
			var h uint64 = 14695981039346656037
			for j := 0; j < shingleLen; j++ {
				h ^= uint64(data[i+j])
				h *= 1099511628211
			}
			set[h] = struct{}{}
		}
	}
	return set
}

func refJaccard(a, b refShingles) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for h := range small {
		if _, ok := large[h]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// shingleCorpus returns multi-section images covering the edge cases of
// windowing and deduplication: no section, sections shorter than, equal
// to and one past a window, all-zero data (one distinct shingle), random
// data, images sharing a code block, and a section repeated across
// images and within one.
func shingleCorpus() []*pe.File {
	k := sim.NewKernel(sim.WithSeed(5))
	shared := platform.Block(platform.Tilded, 12*1024)
	random := k.RNG().Bytes(20 * 1024)
	img := func(name string, sections ...[]byte) *pe.File {
		f := &pe.File{Name: name, Machine: pe.MachineX86, Timestamp: sim.Epoch}
		for i, data := range sections {
			f.Sections = append(f.Sections, pe.Section{Name: fmt.Sprintf(".s%d", i), Data: data})
		}
		return f
	}
	return []*pe.File{
		img("empty.exe"),
		img("nil.exe", nil, []byte{}),
		img("seven.exe", []byte("1234567")),
		img("eight.exe", []byte("12345678")),
		img("nine.exe", []byte("123456789"), []byte("1234567")),
		img("zeros.exe", make([]byte, 4096), make([]byte, 9)),
		img("random.exe", random),
		img("shared-a.exe", append(append([]byte(nil), shared...), k.RNG().Bytes(8*1024)...), []byte("12345678")),
		img("shared-b.exe", k.RNG().Bytes(5*1024), shared),
		img("repeat.exe", random[:4096], random[:4096], shared[:3000]),
	}
}

// TestShinglesMatchMapReference requires the sorted fingerprint to have
// exactly the reference's size and every pairwise Jaccard to equal the
// reference's bit for bit, for images and for FingerprintData.
func TestShinglesMatchMapReference(t *testing.T) {
	imgs := shingleCorpus()
	sets := make([]*ShingleSet, len(imgs))
	refs := make([]refShingles, len(imgs))
	for i, img := range imgs {
		var sections [][]byte
		for _, sec := range img.Sections {
			sections = append(sections, sec.Data)
		}
		sets[i], refs[i] = Fingerprint(img), refFingerprint(sections...)
		if sets[i].Size() != len(refs[i]) {
			t.Fatalf("%s: Size = %d, reference %d", img.Name, sets[i].Size(), len(refs[i]))
		}
		if len(sections) == 1 {
			if got := FingerprintData("d", sections[0]).Size(); got != len(refs[i]) {
				t.Fatalf("%s: FingerprintData Size = %d, reference %d", img.Name, got, len(refs[i]))
			}
		}
	}
	for i := range imgs {
		for j := range imgs {
			got, want := Jaccard(sets[i], sets[j]), refJaccard(refs[i], refs[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Jaccard(%s, %s) = %v, reference %v", imgs[i].Name, imgs[j].Name, got, want)
			}
		}
	}
}

// TestCompareSamplesMatchesReference builds the whole matrix at pool
// widths 1, 2 and 7 and requires it to equal the one the reference
// fingerprints give.
func TestCompareSamplesMatchesReference(t *testing.T) {
	imgs := shingleCorpus()
	want := &SimilarityMatrix{Names: make([]string, len(imgs)), Sim: make([][]float64, len(imgs))}
	refs := make([]refShingles, len(imgs))
	for i, img := range imgs {
		var sections [][]byte
		for _, sec := range img.Sections {
			sections = append(sections, sec.Data)
		}
		refs[i] = refFingerprint(sections...)
		want.Names[i] = img.Name
	}
	for i := range imgs {
		want.Sim[i] = make([]float64, len(imgs))
		for j := range imgs {
			want.Sim[i][j] = refJaccard(refs[i], refs[j])
		}
		want.Sim[i][i] = 1
	}
	for _, workers := range []int{1, 2, 7} {
		if got := compareSamples(workers, imgs); !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: matrix differs from the reference:\n%s\nwant\n%s", workers, got.Render(), want.Render())
		}
	}
}

// BenchmarkCompareSamples fingerprints five images the size of the E3
// lineage samples' code and fills their matrix.
func BenchmarkCompareSamples(b *testing.B) {
	k := sim.NewKernel(sim.WithSeed(9))
	shared := platform.Block(platform.Flamer, 64*1024)
	imgs := make([]*pe.File, 5)
	for i := range imgs {
		data := append(append([]byte(nil), shared...), k.RNG().Bytes(192*1024)...)
		imgs[i] = &pe.File{Name: fmt.Sprintf("s%d.exe", i), Machine: pe.MachineX86, Timestamp: sim.Epoch,
			Sections: []pe.Section{{Name: ".text", Data: data}}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrixSink = CompareSamples(imgs...)
	}
}

var matrixSink *SimilarityMatrix
