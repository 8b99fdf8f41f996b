package main

import "testing"

func TestDissectAllSamples(t *testing.T) {
	for _, sample := range []string{
		"shamoon", "shamoon-driver", "stuxnet", "stuxnet-driver", "flame", "flame-update", "duqu", "gauss",
	} {
		if err := run([]string{"-sample", sample}); err != nil {
			t.Fatalf("dissect %s: %v", sample, err)
		}
	}
}

func TestDissectCompare(t *testing.T) {
	if err := run([]string{"-compare"}); err != nil {
		t.Fatalf("dissect -compare: %v", err)
	}
}

func TestDissectIOCs(t *testing.T) {
	if err := run([]string{"-sample", "shamoon", "-iocs"}); err != nil {
		t.Fatalf("dissect -iocs: %v", err)
	}
}

func TestDissectUnknownSample(t *testing.T) {
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
