// Package zipf implements the Zipfian key-popularity generator used
// by the Smallbank benchmark (§5, Table 2). The skew parameter θ
// matches the paper's (and YCSB's) convention: P(rank k) ∝ 1/k^θ,
// so θ=0 is uniform and larger θ concentrates accesses on the
// hottest keys. The implementation uses Gray et al.'s closed-form
// method, O(1) per draw after O(n) setup.
package zipf

import "math"

// Generator draws keys in [0, n) with Zipfian skew θ. It is not safe
// for concurrent use; give each worker its own (with its own rng).
type Generator struct {
	n     uint64
	theta float64

	alpha, zetan, eta, half float64
}

// New builds a generator over n items with skew theta. theta must be
// in [0, 1); 0 degenerates to uniform.
func New(n uint64, theta float64) *Generator {
	if n == 0 {
		panic("zipf: n must be positive")
	}
	g := &Generator{n: n, theta: theta}
	if theta > 0 {
		g.zetan = zeta(n, theta)
		g.alpha = 1 / (1 - theta)
		g.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/g.zetan)
		g.half = 1 + math.Pow(0.5, theta)
	}
	return g
}

// N returns the key-space size.
func (g *Generator) N() uint64 { return g.n }

// Next maps a uniform sample u in [0, 1) to a key rank in [0, n),
// rank 0 being the most popular key.
func (g *Generator) Next(u float64) uint64 {
	if g.theta == 0 {
		return uint64(u * float64(g.n))
	}
	uz := u * g.zetan
	if uz < 1 {
		return 0
	}
	if uz < g.half {
		return 1
	}
	k := uint64(float64(g.n) * math.Pow(g.eta*u-g.eta+1, g.alpha))
	if k >= g.n {
		k = g.n - 1
	}
	return k
}

// Probability returns the exact probability of drawing rank k
// (0-based), used to verify the access-share table the paper reports
// (Table 2).
func (g *Generator) Probability(k uint64) float64 {
	if g.theta == 0 {
		return 1 / float64(g.n)
	}
	return 1 / (math.Pow(float64(k+1), g.theta) * g.zetan)
}

func zeta(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}
