package pe

import (
	"testing"
	"time"
)

func benchImage(sectionBytes int) *File {
	data := make([]byte, sectionBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return &File{
		Name: "bench.exe", Machine: MachineX86, Timestamp: time.Unix(0, 0),
		Sections:  []Section{{Name: ".text", Characteristics: SecCode, Data: data}},
		Imports:   []Import{{Library: "kernel32.dll", Functions: []string{"CreateFileW", "WriteFile"}}},
		Resources: []Resource{{ID: 1, Raw: data[:sectionBytes/2]}},
	}
}

func BenchmarkMarshal1MB(b *testing.B) {
	img := benchImage(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse1MB(b *testing.B) {
	raw, err := benchImage(1 << 20).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDigest1MB(b *testing.B) {
	img := benchImage(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.Digest(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXOR64K(b *testing.B) {
	data := make([]byte, 64<<10)
	key := []byte{0x5A, 0xA7, 0x13}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		XOR(data, key)
	}
}

func BenchmarkEntropy64K(b *testing.B) {
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Entropy(data)
	}
}

func BenchmarkExtractStrings64K(b *testing.B) {
	data := make([]byte, 64<<10)
	for i := range data {
		if i%7 == 0 {
			data[i] = 0
		} else {
			data[i] = byte('a' + i%26)
		}
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		ExtractStrings(data, 6)
	}
}
