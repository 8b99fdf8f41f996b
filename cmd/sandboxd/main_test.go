package main

import "testing"

func TestDetonateAllSamples(t *testing.T) {
	for _, sample := range []string{"shamoon", "stuxnet", "flame"} {
		if err := run([]string{"-sample", sample, "-observe", "26h"}); err != nil {
			t.Fatalf("sandboxd %s: %v", sample, err)
		}
	}
}

func TestDetonateWithAV(t *testing.T) {
	if err := run([]string{"-sample", "shamoon", "-observe", "1h", "-av"}); err != nil {
		t.Fatalf("sandboxd -av: %v", err)
	}
}

func TestUnknownSample(t *testing.T) {
	if err := run([]string{"-sample", "mystery"}); err == nil {
		t.Fatal("unknown sample accepted")
	}
}

// TestStrayArgumentRejected: a word left over after the flags is an
// error that names it, not silently dropped.
func TestStrayArgumentRejected(t *testing.T) {
	if err := run([]string{"-sample", "flame", "stray"}); err == nil || err.Error() != `unexpected argument "stray"` {
		t.Fatalf("stray argument = %v, want it named", err)
	}
}
