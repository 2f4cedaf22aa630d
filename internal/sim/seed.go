package sim

// SplitMix64 is the finalizer of the splitmix64 generator (Steele,
// Lea, Flood: "Fast Splittable Pseudorandom Number Generators",
// OOPSLA 2014): a bijective avalanche mix of one 64-bit word. It is
// the building block for collision-free seed derivation — two inputs
// differing in a single bit produce statistically independent outputs,
// so structured identifier spaces (node IDs, link pairs, sweep leg
// indexes) cannot alias each other the way additive `seed+i` schemes
// do. Kernel.NewStream uses the same mix for its one-tag case.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed folds any number of identifier parts into one seed by
// absorbing each part through SplitMix64, sponge-style. Unlike linear
// schemes (seed + i, base + a*P + b), the composition is free of
// structural collisions: streams derived from ("loss", from, to) can
// never coincide with ("work", i) for any identifier values, because
// every absorption step is a full-avalanche bijection of the running
// state. New code paths that need per-entity streams — per-link loss
// chains, per-node live schedulers, per-leg sweep seeds — derive their
// seeds here; the pre-existing Kernel.NewStream call sites keep their
// original single-tag derivation so fixed-seed golden traces stay
// bit-identical.
func DeriveSeed(seed int64, parts ...int64) int64 {
	z := SplitMix64(uint64(seed))
	for _, p := range parts {
		z = SplitMix64(z ^ SplitMix64(uint64(p)))
	}
	return int64(z)
}
