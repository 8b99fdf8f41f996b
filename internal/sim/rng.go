package sim

// RNG is a small, fast, deterministic random source (splitmix64). Every
// stochastic decision in the range must derive from a kernel RNG so that
// simulations replay bit-for-bit from a seed.
type RNG struct {
	state uint64
}

// golden is the splitmix64 state increment. One Uint64 draw advances the
// state by exactly this constant, which is what makes Skip O(1).
const golden = 0x9e3779b97f4a7c15

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child RNG whose stream is a pure function of
// the parent's current state. Useful to give each host its own stream.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ golden)
}

// ForkAt derives the i-th member of a family of independent child streams
// without advancing the parent. The result is a pure function of (parent
// state, i), so a builder can hand member i (a host, a site) its own
// stream in any order and still replay bit-for-bit.
func (r *RNG) ForkAt(i uint64) *RNG {
	z := r.state ^ (i+1)*golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRNG(z ^ (z >> 31))
}

// State exposes the internal stream position. NewRNG(State()) clones the
// stream: it produces exactly the draws this RNG would produce next.
// Lazy file content stores this as its generation seed.
func (r *RNG) State() uint64 { return r.state }

// Skip advances the stream by n draws in O(1), leaving the RNG in exactly
// the state n Uint64 calls would. Lazy seeding uses it to keep the parent
// stream byte-identical to eager seeding without generating the bytes.
func (r *RNG) Skip(n int) {
	if n < 0 {
		panic("sim: Skip with negative n")
	}
	r.state += golden * uint64(n)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bytes fills and returns a new slice of n pseudorandom bytes.
func (r *RNG) Bytes(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}
