package simrand

// source is a math/rand Source64 that yields exactly the stream of
// rand.NewSource(seed), bit for bit, for every seed and every draw
// count, but whose Seed costs O(1) instead of the stdlib's 1,841
// Park–Miller steps.
//
// The stdlib generator is an additive lagged-Fibonacci register of
// rngLen words: draw n (1-based) adds vec[feed] and vec[tap], with
// feed = rngLen-rngTap-n and tap = rngLen-n (mod rngLen), and stores the
// sum back into vec[feed]. Seeding fills vec[i] from Park–Miller states
// x_k = x0·48271^k mod (2³¹−1), k = 21+3i .. 23+3i, XORed with
// rngCooked[i]. Because every slot is read in a fixed order, a register
// entry can instead be computed on its first read from the precomputed
// powers in seedPow:
//
//   - the feed slot of draws 1..rngLen-rngTap has never been written, so
//     it is computed fresh;
//   - the tap slot of draws 1..rngTap has never been read or written, so
//     it is computed fresh and stored (it is read again as a feed slot
//     by draw rngLen-rngTap+n);
//   - every other slot read was stored by an earlier draw.
//
// After rngLen-rngTap draws every slot has been materialized and the
// source is the stdlib algorithm verbatim.
type source struct {
	tap, feed int
	drawn     int    // draws since Seed, saturating at rngLen-rngTap
	x0        uint64 // normalized Park–Miller start value
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngLazy  = rngLen - rngTap // draws whose feed slot is still unmaterialized
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	pmA      = 48271 // Park–Miller multiplier of the stdlib's seedrand
)

// seedPow[i][j] = 48271^(21+3i+j) mod (2³¹−1): the Park–Miller powers
// that produce register entry i from the start value.
var seedPow = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 1; k <= 20; k++ {
		x = x * pmA % int32max
	}
	for i := range p {
		for j := range p[i] {
			x = x * pmA % int32max
			p[i][j] = x
		}
	}
	return p
}()

// Seed positions the source at the start of rand.NewSource(seed)'s
// stream. The seed normalization is the stdlib's.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLazy
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.drawn = 0
}

// fresh returns the value the stdlib's Seed would have stored in vec[i].
func (s *source) fresh(i int) int64 {
	p := &seedPow[i]
	u := int64(s.x0*p[0]%int32max) << 40
	u ^= int64(s.x0*p[1]%int32max) << 20
	u ^= int64(s.x0 * p[2] % int32max)
	return u ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	var x int64
	if s.drawn < rngLazy {
		x = s.lazyDraw()
	} else {
		x = s.vec[s.feed] + s.vec[s.tap]
	}
	s.vec[s.feed] = x
	return uint64(x)
}

// lazyDraw is the register sum of one of the first rngLazy draws, whose
// feed slot (and, for the first rngTap, tap slot) is computed on read.
func (s *source) lazyDraw() int64 {
	s.drawn++
	var t int64
	if s.drawn <= rngTap {
		t = s.fresh(s.tap)
		s.vec[s.tap] = t
	} else {
		t = s.vec[s.tap]
	}
	return s.fresh(s.feed) + t
}
