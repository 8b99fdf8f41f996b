package cnc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// sealedCenter returns an attack center whose operator has collected n
// entries sealed to its coordinator key, sized from 0 B to about 6 KiB,
// and the plaintext of each.
func sealedCenter(t testing.TB, n int) (*AttackCenter, [][]byte) {
	t.Helper()
	k := sim.NewKernel(sim.WithSeed(23))
	kp, err := NewSealKeypair(k.RNG())
	if err != nil {
		t.Fatal(err)
	}
	c := &AttackCenter{K: k, Seal: kp}
	plains := make([][]byte, n)
	for i := range plains {
		size := k.RNG().Intn(6 * 1024)
		if i%10 == 0 {
			size = i % 3 // empty, 1 and 2 bytes
		}
		plains[i] = k.RNG().Bytes(size)
		sealed, err := Seal(kp.Public, k.RNG(), plains[i])
		if err != nil {
			t.Fatal(err)
		}
		c.collected = append(c.collected, &Entry{
			ID: 100 + i, ClientID: fmt.Sprintf("client-%d", i%7), Name: fmt.Sprintf("doc-%03d.docx", i), Sealed: sealed,
		})
	}
	return c, plains
}

// TestDecryptAllWidthInvariant opens the same archive at pool widths 1, 2
// and 7: each must recover every plaintext, in entry order, with the
// entry's client and name, and empty the inbox.
func TestDecryptAllWidthInvariant(t *testing.T) {
	const entries = 211
	for _, workers := range []int{1, 2, 7} {
		c, plains := sealedCenter(t, entries)
		n, err := c.Coordinator().decryptAll(workers)
		if err != nil || n != entries {
			t.Fatalf("width %d: decryptAll = %d, %v", workers, n, err)
		}
		docs := c.Coordinator().Archive()
		if len(docs) != entries {
			t.Fatalf("width %d: archive holds %d docs, want %d", workers, len(docs), entries)
		}
		for i, d := range docs {
			want := StolenDoc{ClientID: fmt.Sprintf("client-%d", i%7), Name: fmt.Sprintf("doc-%03d.docx", i), Data: plains[i]}
			if d.ClientID != want.ClientID || d.Name != want.Name || !bytes.Equal(d.Data, want.Data) {
				t.Fatalf("width %d: doc %d = {%s %s %d bytes}, want {%s %s %d bytes}",
					workers, i, d.ClientID, d.Name, len(d.Data), want.ClientID, want.Name, len(want.Data))
			}
		}
		if len(c.Operator().SealedInbox()) != 0 {
			t.Fatalf("width %d: %d entries left collected", workers, len(c.Operator().SealedInbox()))
		}
	}
}

// TestDecryptAllStopsAtFirstError corrupts entries 3 and 9. At every
// width the error names entry 3, the three documents before it are
// archived, and every collected entry stays for the next attempt.
func TestDecryptAllStopsAtFirstError(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		c, plains := sealedCenter(t, 200)
		c.collected[3].Sealed = []byte("short")
		c.collected[9].Sealed = nil
		inbox := append([]*Entry(nil), c.collected...)
		n, err := c.Coordinator().decryptAll(workers)
		if n != 3 || !errors.Is(err, ErrSealedTooShort) || !strings.Contains(err.Error(), "decrypt entry 103:") {
			t.Fatalf("width %d: decryptAll = %d, %v; want 3 and the entry-103 error", workers, n, err)
		}
		docs := c.Coordinator().Archive()
		if len(docs) != 3 {
			t.Fatalf("width %d: archive holds %d docs, want 3", workers, len(docs))
		}
		for i, d := range docs {
			if !bytes.Equal(d.Data, plains[i]) {
				t.Fatalf("width %d: doc %d does not match its plaintext", workers, i)
			}
		}
		got := c.Operator().SealedInbox()
		if len(got) != len(inbox) {
			t.Fatalf("width %d: %d entries collected after the failure, want %d", workers, len(got), len(inbox))
		}
		for i := range got {
			if got[i] != inbox[i] {
				t.Fatalf("width %d: collected entry %d changed", workers, i)
			}
		}
	}
}

func BenchmarkDecryptAll(b *testing.B) {
	c, _ := sealedCenter(b, 256)
	entries := c.collected
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.collected = append(c.collected[:0], entries...)
		c.decrypted = c.decrypted[:0]
		if _, err := c.Coordinator().DecryptAll(); err != nil {
			b.Fatal(err)
		}
	}
}
