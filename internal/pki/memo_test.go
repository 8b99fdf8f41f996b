package pki

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/pe"
)

// memoFixture is a world's worth of signed material: a strong root that
// issued a driver-signing certificate, a weak-hash licensing intermediate,
// the Flame-style forged code-signing certificate collided from that
// intermediate's license-only leaf, and an image signed under each.
type memoFixture struct {
	root   *Authority
	inter  *Authority
	leaf   *Certificate // driver signing, issued by root
	forged *Certificate // code signing, collided under inter
	driver *pe.File     // signed by leaf
	update *pe.File     // signed by forged, chain forged → inter
}

func newMemoFixture(t testing.TB) *memoFixture {
	t.Helper()
	f := &memoFixture{root: testRoot(t, "SimTrust Root", HashStrong)}
	var err error
	if f.inter, err = f.root.Subordinate(testNow, "SimSoft Licensing PCA", HashWeak, seed(90), 10*365*24*time.Hour); err != nil {
		t.Fatalf("Subordinate: %v", err)
	}
	driverKey := NewKeypair(seed(91))
	if f.leaf, err = f.root.Issue(testNow, IssueRequest{Subject: "Eldos Corporation", Usages: UsageDriverSign,
		Lifetime: 30 * 24 * time.Hour, PubKey: driverKey.Public}); err != nil {
		t.Fatalf("Issue leaf: %v", err)
	}
	attacker := NewKeypair(seed(92))
	tsls, err := f.inter.Issue(testNow, IssueRequest{Subject: "Contoso TSLS", Usages: UsageLicenseOnly, PubKey: attacker.Public})
	if err != nil {
		t.Fatalf("Issue TSLS: %v", err)
	}
	if f.forged, err = ForgeFromWeakCert(tsls, Certificate{Serial: 4242, Subject: "SimSoft Windows Update",
		Usages: UsageCodeSign, NotBefore: tsls.NotBefore, NotAfter: tsls.NotAfter, PubKey: attacker.Public}); err != nil {
		t.Fatalf("ForgeFromWeakCert: %v", err)
	}
	f.driver = &pe.File{Name: "drdisk.sys", Machine: pe.MachineX86, Timestamp: testNow,
		Sections: []pe.Section{{Name: ".text", Data: []byte("raw disk access driver")}}}
	if err := SignImage(f.driver, driverKey, f.leaf); err != nil {
		t.Fatalf("SignImage driver: %v", err)
	}
	f.update = &pe.File{Name: "WuSetupV.exe", Machine: pe.MachineX86, Timestamp: testNow,
		Sections: []pe.Section{{Name: ".text", Data: []byte("fake windows update")}}}
	if err := SignImage(f.update, attacker, f.forged, f.inter.Cert); err != nil {
		t.Fatalf("SignImage update: %v", err)
	}
	return f
}

// warm verifies both images of the fixture through s, so s's memo holds
// all five signatures: the leaf's and the driver's; the forged
// certificate's, the intermediate's and the update's.
func (f *memoFixture) warm(t testing.TB, s *Store) {
	t.Helper()
	if _, err := VerifyImage(f.driver, s, testNow, UsageDriverSign); err != nil {
		t.Fatalf("warm driver: %v", err)
	}
	if _, err := VerifyImage(f.update, s, testNow, UsageCodeSign); err != nil {
		t.Fatalf("warm update: %v", err)
	}
}

// copyImage returns a deep copy of img that a case may tamper with.
func copyImage(img *pe.File) *pe.File {
	c := *img
	c.Sections = make([]pe.Section, len(img.Sections))
	for i, s := range img.Sections {
		s.Data = bytes.Clone(s.Data)
		c.Sections[i] = s
	}
	c.SigBlob = bytes.Clone(img.SigBlob)
	return &c
}

var verifyErrs = []error{ErrEmptyChain, ErrUntrustedRoot, ErrDistrusted, ErrExpired,
	ErrBadSignature, ErrUsage, ErrNotCA, ErrIssuerMismatch}

// TestMemoVerdictsMatchFreshStore checks that a memo already warm for the
// same chain or image changes no verdict: a clone of a warmed store and a
// fresh NewStore return the same result and the same error class, and
// whatever a case did to its clone, an untouched sibling sharing the memo
// still accepts the untampered driver.
func TestMemoVerdictsMatchFreshStore(t *testing.T) {
	verify := func(s *Store, img *pe.File, at time.Time, usage KeyUsage) error {
		_, err := VerifyImage(img, s, at, usage)
		return err
	}
	cases := []struct {
		name  string
		check func(f *memoFixture, s *Store) error
		want  error // nil: accepted
	}{
		{"image tampered", func(f *memoFixture, s *Store) error {
			img := copyImage(f.driver)
			img.Sections[0].Data[0] ^= 1
			return verify(s, img, testNow, UsageDriverSign)
		}, ErrBadSignature},
		{"image signature in blob tampered", func(f *memoFixture, s *Store) error {
			img := copyImage(f.driver)
			img.SigBlob[len(img.SigBlob)-1] ^= 1
			return verify(s, img, testNow, UsageDriverSign)
		}, ErrBadSignature},
		{"certificate signature in blob tampered", func(f *memoFixture, s *Store) error {
			img := copyImage(f.driver)
			// The leaf's own signature ends its frame, just before the
			// u16 length and the image signature.
			img.SigBlob[len(img.SigBlob)-ed25519.SignatureSize-2-1] ^= 1
			return verify(s, img, testNow, UsageDriverSign)
		}, ErrBadSignature},
		{"distrusted on this clone", func(f *memoFixture, s *Store) error {
			s.Distrust(f.leaf.Serial, "revoked")
			return verify(s, f.driver, testNow, UsageDriverSign)
		}, ErrDistrusted},
		{"outside validity window", func(f *memoFixture, s *Store) error {
			return verify(s, f.driver, f.leaf.NotAfter.Add(time.Hour), UsageDriverSign)
		}, ErrExpired},
		{"wrong usage", func(f *memoFixture, s *Store) error {
			return verify(s, f.driver, testNow, UsageCodeSign)
		}, ErrUsage},
		{"issuer name mismatch", func(f *memoFixture, s *Store) error {
			// Same key and signature bytes the memo holds, but the parent
			// now carries another subject: the name check must still run.
			renamed := *f.inter.Cert
			renamed.Subject = "Some Other PCA"
			return s.VerifyChain(testNow, UsageCodeSign, f.forged, &renamed)
		}, ErrIssuerMismatch},
		{"forged chain before advisory", func(f *memoFixture, s *Store) error {
			return verify(s, f.update, testNow, UsageCodeSign)
		}, nil},
		{"forged chain after advisory", func(f *memoFixture, s *Store) error {
			s.Distrust(f.inter.Cert.Serial, "advisory 2718704")
			return verify(s, f.update, testNow, UsageCodeSign)
		}, ErrDistrusted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newMemoFixture(t)
			base := NewStore(f.root.Cert)
			f.warm(t, base)
			warmErr := tc.check(f, base.Clone())
			freshErr := tc.check(f, NewStore(f.root.Cert))
			for label, err := range map[string]error{"warm": warmErr, "fresh": freshErr} {
				if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
					t.Errorf("%s store: err = %v, want %v", label, err, tc.want)
				}
			}
			for _, class := range verifyErrs {
				if errors.Is(warmErr, class) != errors.Is(freshErr, class) {
					t.Errorf("error class %v differs: warm %v, fresh %v", class, warmErr, freshErr)
				}
			}
			if _, err := VerifyImage(f.driver, base.Clone(), testNow, UsageDriverSign); err != nil {
				t.Errorf("sibling sharing the memo rejected the driver: %v", err)
			}
		})
	}
}

// TestCloneSharesMemo pins the sharing rule: clones share one memo with
// their base and NewStore starts another. (TestStoreCloneIsIndependent
// pins that trust decisions stay per clone.)
func TestCloneSharesMemo(t *testing.T) {
	f := newMemoFixture(t)
	base := NewStore(f.root.Cert)
	clone := base.Clone()
	if clone.memo != base.memo {
		t.Fatal("Clone does not share its base's memo")
	}
	if other := NewStore(f.root.Cert); other.memo == base.memo {
		t.Fatal("two NewStore calls share a memo")
	}
	f.warm(t, clone)
	if got := len(base.memo.ok); got != 5 {
		t.Fatalf("memo holds %d signatures after warming a clone, want 5", got)
	}
}

// TestMemoRecordsOnlySuccess pins that a failed check leaves no trace: a
// tampered image fails twice through the same store and adds nothing.
func TestMemoRecordsOnlySuccess(t *testing.T) {
	f := newMemoFixture(t)
	s := NewStore(f.root.Cert)
	img := copyImage(f.driver)
	img.SigBlob[len(img.SigBlob)-1] ^= 1
	for i := 0; i < 2; i++ {
		if _, err := VerifyImage(img, s, testNow, UsageDriverSign); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("attempt %d: err = %v, want ErrBadSignature", i, err)
		}
	}
	// The leaf certificate's signature verified; the image's did not.
	if got := len(s.memo.ok); got != 1 {
		t.Fatalf("memo holds %d signatures, want only the leaf certificate's 1", got)
	}
}

// TestMemoConcurrentClones runs the fleet's pattern under the race
// detector: goroutines verify through their own clones of one cold base
// store, so they fill the shared memo concurrently, while half of the
// clones have distrusted the licensing intermediate first.
func TestMemoConcurrentClones(t *testing.T) {
	f := newMemoFixture(t)
	base := NewStore(f.root.Cert)
	const workers, rounds = 8, 20
	stores := make([]*Store, workers)
	for i := range stores {
		stores[i] = base.Clone()
		if i%2 == 1 {
			stores[i].Distrust(f.inter.Cert.Serial, "advisory 2718704")
		}
	}
	errs := make([][]error, workers)
	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				_, dErr := VerifyImage(f.driver, s, testNow, UsageDriverSign)
				_, uErr := VerifyImage(f.update, s, testNow, UsageCodeSign)
				errs[i] = append(errs[i], dErr, uErr)
			}
		}()
	}
	wg.Wait()
	for i, got := range errs {
		distrusted := i%2 == 1
		for j, err := range got {
			switch {
			case j%2 == 0 && err != nil:
				t.Errorf("clone %d round %d: driver rejected: %v", i, j/2, err)
			case j%2 == 1 && distrusted && !errors.Is(err, ErrDistrusted):
				t.Errorf("clone %d round %d: distrusted clone: update err = %v, want ErrDistrusted", i, j/2, err)
			case j%2 == 1 && !distrusted && err != nil:
				t.Errorf("clone %d round %d: update rejected: %v", i, j/2, err)
			}
		}
	}
}

// TestVerifyImageAllocs pins the allocation cost of the fleet's hot path:
// a warm VerifyImage (the memo already holds both signatures) allocates at
// most 14 times and never more than a cold one on a fresh store.
func TestVerifyImageAllocs(t *testing.T) {
	f := newMemoFixture(t)
	const runs = 50
	cold := make([]*Store, runs+1) // AllocsPerRun calls its func runs+1 times
	for i := range cold {
		cold[i] = NewStore(f.root.Cert)
	}
	next := 0
	coldAllocs := testing.AllocsPerRun(runs, func() {
		if _, err := VerifyImage(f.driver, cold[next], testNow, UsageDriverSign); err != nil {
			t.Fatal(err)
		}
		next++
	})
	warm := NewStore(f.root.Cert)
	f.warm(t, warm)
	warmAllocs := testing.AllocsPerRun(runs, func() {
		if _, err := VerifyImage(f.driver, warm, testNow, UsageDriverSign); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("VerifyImage allocs: warm %v, cold %v", warmAllocs, coldAllocs)
	if warmAllocs > 14 || warmAllocs > coldAllocs {
		t.Fatalf("warm VerifyImage: %v allocs, cold %v; want at most 14 and no more than cold", warmAllocs, coldAllocs)
	}
}
