package minilua

import "testing"

const benchScript = `
local sum = 0
for i = 1, 1000 do
	sum = sum + i * 2 - (i % 7)
end
return sum
`

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchScript); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunArithmeticLoop(b *testing.B) {
	chunk, err := Parse(benchScript)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := NewInterp()
		if _, err := in.Run(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableOps(b *testing.B) {
	chunk, err := Parse(`
		local t = {}
		for i = 1, 200 do t["k" .. i] = i end
		local sum = 0
		for i = 1, 200 do sum = sum + t["k" .. i] end
		return sum
	`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		in := NewInterp()
		if _, err := in.Run(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionCalls(b *testing.B) {
	chunk, err := Parse(`
		function fib(n)
			if n < 2 then return n end
			return fib(n - 1) + fib(n - 2)
		end
		return fib(12)
	`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		in := NewInterp()
		if _, err := in.Run(chunk); err != nil {
			b.Fatal(err)
		}
	}
}
