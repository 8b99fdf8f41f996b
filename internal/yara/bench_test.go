package yara

import "testing"

var benchRules = MustCompile(`
rule A {
    strings:
        $a = "TrkSvr"
        $b = "netinit.exe"
        $h = { FF D8 FF E0 00 }
    condition:
        $a and ($b or $h)
}
rule B {
    strings:
        $x = "mssecmgr" nocase
        $y = "wpad.dat"
    condition:
        $x and $y
}
rule C {
    strings:
        $r = "rootkit mrxcls.sys" nocase
        $s = "rootkit mrxnet.sys" nocase
    condition:
        any of them
}`)

func benchHaystack(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte('a' + i%23)
	}
	copy(data[n/2:], "TrkSvr service with netinit.exe nearby")
	return data
}

func BenchmarkScan64K(b *testing.B) {
	data := benchHaystack(64 << 10)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		benchRules.ScanNames(data)
	}
}

func BenchmarkScan1MB(b *testing.B) {
	data := benchHaystack(1 << 20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		benchRules.ScanNames(data)
	}
}

func BenchmarkCompile(b *testing.B) {
	src := `
rule Bench {
    meta:
        family = "bench"
    strings:
        $a = "alpha"
        $b = { DE AD BE EF }
    condition:
        $a and $b
}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}
