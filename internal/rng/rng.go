// Package rng provides small, fast, deterministic random number
// generators for workload generation and experiments.
//
// The standard library's math/rand is avoided in hot paths for two
// reasons: the global source is mutex-protected, which would itself
// become a contended critical section and pollute scalability
// measurements, and we need bit-for-bit reproducible per-worker
// streams so experiment runs are repeatable.
package rng

// Source is a xorshift128+ generator. It is not safe for concurrent
// use; create one Source per worker (see Split).
type Source struct {
	s0, s1 uint64
}

// New returns a Source seeded from seed. Any seed, including zero, is
// valid: the state is scrambled through splitmix64 so that nearby
// seeds produce unrelated streams.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to the stream identified by seed.
func (s *Source) Seed(seed uint64) {
	// splitmix64 expansion, recommended seeding for xorshift family.
	z := seed
	z, s.s0 = splitmix64(z)
	_, s.s1 = splitmix64(z)
	if s.s0 == 0 && s.s1 == 0 {
		s.s1 = 0x9e3779b97f4a7c15 // all-zero state is a fixed point
	}
}

func splitmix64(x uint64) (next, out uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	x, y := s.s0, s.s1
	s.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	s.s1 = x
	return x + y
}

// Split derives the i-th child stream from s without disturbing the
// parent. Children of distinct indices are statistically independent.
func (s *Source) Split(i uint64) *Source {
	return New(s.s0 ^ (s.s1 * 0x9e3779b97f4a7c15) ^ (i+1)*0xd1342543de82ef95)
}

// Intn returns a value uniform in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a value uniform in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// IntRange returns a value uniform in [lo, hi] inclusive. It panics
// if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Bytes fills b with pseudo-random bytes.
func (s *Source) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := s.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := s.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
