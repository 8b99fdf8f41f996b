package pki

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/pe"
)

// sigBlobSeeds returns the seed corpus of FuzzParseImageSignature: the
// blob of an Eldos-signed raw-disk driver, a two-certificate chain, the
// driver blob with chain counts 0 and 17, cut after its certificate
// (before the signature's length), and with one trailing byte.
func sigBlobSeeds(tb testing.TB) [][]byte {
	root := testRoot(tb, "SimTrust Root", HashStrong)
	eldosKey := NewKeypair(seed(60))
	eldos, err := root.Issue(testNow, IssueRequest{Subject: "Eldos Corporation", Usages: UsageDriverSign,
		Lifetime: 365 * 24 * time.Hour, PubKey: eldosKey.Public})
	if err != nil {
		tb.Fatal(err)
	}
	driver := &pe.File{Name: "drdisk.sys", Machine: pe.MachineX86, Timestamp: testNow,
		Sections: []pe.Section{{Name: ".text", Data: []byte("ElRawDisk: user-mode raw sector access\x00")}}}
	if err := SignImage(driver, eldosKey, eldos); err != nil {
		tb.Fatal(err)
	}
	inter, err := root.Subordinate(testNow, "SimSoft Licensing PCA", HashWeak, seed(61), 10*365*24*time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	leafKey := NewKeypair(seed(62))
	leaf, err := inter.Issue(testNow, IssueRequest{Subject: "SimSoft Update Signing", Usages: UsageCodeSign, PubKey: leafKey.Public})
	if err != nil {
		tb.Fatal(err)
	}
	update := &pe.File{Name: "WuSetupV.exe", Machine: pe.MachineX86, Timestamp: testNow,
		Sections: []pe.Section{{Name: ".text", Data: []byte("update body")}}}
	if err := SignImage(update, leafKey, leaf, inter.Cert); err != nil {
		tb.Fatal(err)
	}

	blob := driver.SigBlob
	withCount := func(n uint16) []byte {
		b := bytes.Clone(blob)
		binary.LittleEndian.PutUint16(b, n)
		return b
	}
	certEnd := 2 + 4 + int(binary.LittleEndian.Uint32(blob[2:]))
	return [][]byte{
		blob,
		update.SigBlob,
		withCount(0),
		withCount(17),
		bytes.Clone(blob[:certEnd]),
		append(bytes.Clone(blob), 0),
	}
}

// FuzzParseImageSignature holds the signature-blob reader behind
// VerifyImage, which every driver load runs, to the contract of every
// reader of external bytes: an error, never a panic or hang. A blob it
// accepts must re-marshal to exactly its input, so no two blobs decode
// to one signature.
func FuzzParseImageSignature(f *testing.F) {
	for _, s := range sigBlobSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		sig, err := parseImageSignature(blob)
		if err != nil {
			return
		}
		if got := sig.marshal(); !bytes.Equal(got, blob) {
			t.Fatalf("accepted blob re-marshals differently:\n in  %x\n out %x", blob, got)
		}
	})
}
