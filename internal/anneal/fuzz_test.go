package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzAnnealReplicaSwap drives RunParallel through randomized temperature
// ladders, swap cadences, and replica counts on the incremental toy problem,
// and checks the per-replica journal invariant at every swap barrier: each
// replica's incrementally patched cost must match a from-scratch recompute
// within 1e-9 relative, with its diff bookkeeping byte-exact.
func FuzzAnnealReplicaSwap(f *testing.F) {
	f.Add(int64(1), int64(2), int64(400), int64(0), 1.5)
	f.Add(int64(7), int64(4), int64(900), int64(35), 2.25)
	f.Add(int64(42), int64(3), int64(777), int64(120), 1.05)

	f.Fuzz(func(t *testing.T, seed, k, iters, swapEvery int64, ladder float64) {
		K := int(mod(k, 4)) + 2 // 2..5 replicas
		budget := int(mod(iters, 1500)) + 50
		se := int(mod(swapEvery, 200)) // 0 picks the chain-multiple default
		if math.IsNaN(ladder) || math.IsInf(ladder, 0) || ladder < 0.2 || ladder > 8 {
			ladder = 1.5
		}

		reps := make([]Replica, K)
		sums := make([]*incrSum, K)
		root := rand.New(rand.NewSource(seed))
		for r := range reps {
			rng := rand.New(rand.NewSource(root.Int63()))
			sums[r] = newIncrSum(9, rng)
			reps[r] = Replica{Problem: sums[r], RNG: rng}
		}

		check := func(when string) {
			for _, s := range sums {
				s.checkInvariant(t, when)
			}
		}

		res := RunParallel(reps, ParallelOptions{
			Schedule:     Options{Iterations: budget},
			SwapEvery:    se,
			LadderFactor: ladder,
			SwapSeed:     seed ^ 0x5DEECE66D,
			OnStride:     func(done, total int, best float64) { check("post-swap barrier") },
		})
		check("final")

		total := 0
		for r := range res.Replicas {
			if got := res.Replicas[r].Iterations; got > budget {
				t.Fatalf("replica %d overran its budget: %d > %d", r, got, budget)
			}
			total += res.Replicas[r].Iterations
		}
		if total != K*budget {
			t.Fatalf("fleet consumed %d moves, want %d", total, K*budget)
		}
		if res.SwapAccepts > res.SwapAttempts {
			t.Fatalf("swap accepts %d exceed attempts %d", res.SwapAccepts, res.SwapAttempts)
		}
		if res.Best < 0 || res.Best >= K {
			t.Fatalf("best index %d out of range", res.Best)
		}
		for r := range res.Replicas {
			if res.Replicas[r].BestCost < res.BestCost {
				t.Fatalf("replica %d best %v beats the reported fleet best %v",
					r, res.Replicas[r].BestCost, res.BestCost)
			}
		}
	})
}

// mod is a non-negative modulus for fuzz-provided int64s.
func mod(v, n int64) int64 {
	r := v % n
	if r < 0 {
		r += n
	}
	return r
}
