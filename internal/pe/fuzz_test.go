package pe_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/pe"
	"repro/internal/pki"
)

// fuzzSeeds returns marshalled sample images: an unsigned one with an
// XOR-encrypted resource, the same image signed by a two-certificate
// chain, and a bare header.
func fuzzSeeds(f *testing.F) [][]byte {
	t0 := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	img := &pe.File{
		Name: "TrkSvr.exe", Machine: pe.MachineX86, Timestamp: t0, EntryPoint: 0x401000,
		Sections: []pe.Section{
			{Name: ".text", Characteristics: pe.SecCode | pe.SecExec, Data: []byte("dropper body")},
			{Name: ".data", Characteristics: pe.SecData, Data: []byte("netinit.exe\x00f1.inf\x00")},
		},
		Imports: []pe.Import{{Library: "kernel32.dll", Functions: []string{"CreateFileW", "WriteFile"}}},
	}
	img.AddEncryptedResource(112, []byte{0x5A}, []byte("wiper module"))
	unsigned, err := img.Marshal()
	if err != nil {
		f.Fatal(err)
	}

	root := pki.NewRoot("Fuzz Root CA", pki.HashStrong, [32]byte{1}, t0, 10*365*24*time.Hour)
	key := pki.NewKeypair([32]byte{2})
	leaf, err := root.Issue(t0, pki.IssueRequest{Subject: "Fuzz Signer", Usages: pki.UsageDriverSign, PubKey: key.Public})
	if err != nil {
		f.Fatal(err)
	}
	if err := pki.SignImage(img, key, leaf, root.Cert); err != nil {
		f.Fatal(err)
	}
	signed, err := img.Marshal()
	if err != nil {
		f.Fatal(err)
	}

	bare, err := (&pe.File{Name: "a"}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{unsigned, signed, bare}
}

// FuzzParse checks the contract host execution relies on. Parse never
// panics, and for every image it accepts (up to the 128 MiB limit):
//   - re-marshalling gives back the input, with the reserved flags word
//     (bytes 6-7) zeroed;
//   - Digest is the SHA-256 of that encoding without its signature blob;
//   - appending to a parsed section, resource or signature slice leaves
//     the input unchanged, although Parse aliases it.
func FuzzParse(f *testing.F) {
	for _, raw := range fuzzSeeds(f) {
		f.Add(raw)
		flagged := bytes.Clone(raw)
		flagged[6] = 0xFF
		f.Add(flagged)
		for n := 0; n < len(raw); n += len(raw)/8 + 1 {
			f.Add(raw[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		orig := bytes.Clone(b)
		img, err := pe.Parse(b)
		if err != nil || len(b) > 128<<20 {
			return
		}
		got, err := img.Marshal()
		if err != nil {
			t.Fatalf("Marshal of a parsed image: %v", err)
		}
		want := bytes.Clone(orig)
		want[6], want[7] = 0, 0
		if !bytes.Equal(got, want) {
			t.Fatalf("Marshal(Parse(b)) differs from b with its flags zeroed:\n got %x\nwant %x", got, want)
		}

		// The encoding ends in the signature blob's u32 length and bytes;
		// the digest covers it with an empty blob in their place.
		body := len(got) - 4 - len(img.SigBlob)
		unsigned := binary.LittleEndian.AppendUint32(bytes.Clone(got[:body]), 0)
		d, err := img.Digest()
		if err != nil {
			t.Fatalf("Digest of a parsed image: %v", err)
		}
		if d != sha256.Sum256(unsigned) {
			t.Fatal("Digest differs from the SHA-256 of the unsigned encoding")
		}

		for _, s := range img.Sections {
			_ = append(s.Data, 0xAA)
		}
		for _, r := range img.Resources {
			_ = append(r.Raw, 0xAA)
		}
		_ = append(img.SigBlob, 0xAA)
		if !bytes.Equal(b, orig) {
			t.Fatal("appending to a parsed slice wrote into the input")
		}
	})
}
