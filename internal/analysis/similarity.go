package analysis

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"repro/internal/pe"
	"repro/internal/sim"
)

// shingleLen is the n-gram window for code-similarity analysis. Eight
// bytes is long enough that shared shingles mean shared code, short enough
// to survive relinking offsets in our synthetic images.
const shingleLen = 8

// ShingleSet is the hashed n-gram fingerprint of one sample's code.
type ShingleSet struct {
	Name string
	set  []uint64 // distinct window hashes, ascending
}

// Fingerprint builds the shingle set of an image's section contents.
func Fingerprint(img *pe.File) *ShingleSet {
	sections := make([][]byte, len(img.Sections))
	for i, sec := range img.Sections {
		sections[i] = sec.Data
	}
	return fingerprint(img.Name, sections...)
}

// FingerprintData builds a shingle set over raw bytes.
func FingerprintData(name string, data []byte) *ShingleSet {
	return fingerprint(name, data)
}

// fingerprint hashes every shingleLen-byte window of each section with
// FNV-1a into one slice presized to the window count, then sorts it and
// drops repeats.
func fingerprint(name string, sections ...[]byte) *ShingleSet {
	n := 0
	for _, data := range sections {
		n += max(len(data)-shingleLen+1, 0)
	}
	set := make([]uint64, 0, n)
	for _, data := range sections {
		for i := 0; i+shingleLen <= len(data); i++ {
			var h uint64 = 14695981039346656037
			for j := 0; j < shingleLen; j++ {
				h ^= uint64(data[i+j])
				h *= 1099511628211
			}
			set = append(set, h)
		}
	}
	slices.Sort(set)
	return &ShingleSet{Name: name, set: slices.Compact(set)}
}

// Size returns the number of distinct shingles.
func (s *ShingleSet) Size() int { return len(s.set) }

// Jaccard returns |A∩B| / |A∪B| for two fingerprints. Both sets are
// sorted, so the intersection is one merge walk.
func Jaccard(a, b *ShingleSet) float64 {
	if len(a.set) == 0 || len(b.set) == 0 {
		return 0
	}
	x, y := a.set, b.set
	inter := 0
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(x) + len(y) - inter
	return float64(inter) / float64(union)
}

// SimilarityMatrix holds pairwise Jaccard similarities between samples.
type SimilarityMatrix struct {
	Names []string
	Sim   [][]float64
}

// CompareSamples fingerprints every image and computes the full matrix.
// The images are fingerprinted side by side on up to GOMAXPROCS
// goroutines, each into its own slot (DESIGN.md §9); the matrix is filled
// after they join.
func CompareSamples(imgs ...*pe.File) *SimilarityMatrix {
	return compareSamples(runtime.GOMAXPROCS(0), imgs)
}

// compareSamples is CompareSamples on a pool of the given width.
func compareSamples(workers int, imgs []*pe.File) *SimilarityMatrix {
	sets := make([]*ShingleSet, len(imgs))
	sim.RunPool(len(imgs), workers, func(i int) { sets[i] = Fingerprint(imgs[i]) })
	m := &SimilarityMatrix{
		Names: make([]string, len(imgs)),
		Sim:   make([][]float64, len(imgs)),
	}
	for i, img := range imgs {
		m.Names[i] = img.Name
		m.Sim[i] = make([]float64, len(imgs))
	}
	for i := range sets {
		m.Sim[i][i] = 1
		for j := i + 1; j < len(sets); j++ {
			v := Jaccard(sets[i], sets[j])
			m.Sim[i][j] = v
			m.Sim[j][i] = v
		}
	}
	return m
}

// Of returns the similarity between two named samples.
func (m *SimilarityMatrix) Of(a, b string) float64 {
	ai, bi := -1, -1
	for i, n := range m.Names {
		if n == a {
			ai = i
		}
		if n == b {
			bi = i
		}
	}
	if ai < 0 || bi < 0 {
		return 0
	}
	return m.Sim[ai][bi]
}

// Render prints the matrix as a table.
func (m *SimilarityMatrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "sample")
	for _, n := range m.Names {
		fmt.Fprintf(&b, " %14s", truncName(n))
	}
	b.WriteByte('\n')
	for i, n := range m.Names {
		fmt.Fprintf(&b, "%-16s", truncName(n))
		for j := range m.Names {
			fmt.Fprintf(&b, " %14.3f", m.Sim[i][j])
		}
		b.WriteByte('\n')
		_ = n
	}
	return b.String()
}

func truncName(n string) string {
	if len(n) > 14 {
		return n[:14]
	}
	return n
}
