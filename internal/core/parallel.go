package core

import (
	"context"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/thermal"
)

// runParallelAnneal is the Replicas annealing stage: K tempered chains, each
// with its own evaluator, replacing the serial anneal.Run call. It returns the
// best floorplan across all chains plus the merged evaluation stats.
//
// Determinism layout: the flow RNG contributes exactly K+1 draws (one seed
// per replica plus the swap-decision seed) and is then untouched until
// finalize, so the walk inside the replicas — whatever the scheduler does —
// cannot perturb the downstream stages. Each replica derives its initial
// floorplan and its whole move stream from its own seeded RNG, and the
// engine's barrier discipline does the rest: a fixed (Seed, Replicas) pair
// gives a byte-identical Result for any GOMAXPROCS.
func runParallelAnneal(ctx context.Context, des *netlist.Design, cfg *Config, rng *rand.Rand, fast *thermal.FastEstimator) (*floorplan.Floorplan, EvalStats, error) {
	k := cfg.Replicas
	if k < 1 {
		k = 1
	}
	seeds := make([]int64, k)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}
	swapSeed := rng.Int63()

	reps := make([]anneal.Replica, k)
	evs := make([]*evaluator, k)
	bests := make([]*floorplan.Floorplan, k)
	for r := range reps {
		rrng := rand.New(rand.NewSource(seeds[r]))
		evs[r] = newEvaluator(floorplan.NewRandom(des, rrng), cfg, fast)
		r := r
		reps[r] = anneal.Replica{
			Problem: evs[r],
			RNG:     rrng,
			OnBest: func(float64) {
				bests[r] = evs[r].fp.SnapshotInto(bests[r])
			},
		}
	}

	// Replica costs must be comparable across the ladder (swaps and the
	// best-of pick both compare them), so every evaluator shares one set of
	// normalization baselines instead of deriving its own from its replica's
	// initial packing. A throwaway full-path evaluator computes them once on
	// the same reference floorplan the serial path would have started from
	// (a fresh Seed-derived stream), which puts AnnealBestCost on one scale
	// for every replica count at a given seed. normTerms is
	// read-only after this, so the pointer is safe to share across the
	// worker goroutines.
	boot := &evaluator{fp: floorplan.NewRandom(des, rand.New(rand.NewSource(cfg.Seed))), cfg: cfg, fast: fast}
	boot.Cost()
	for _, ev := range evs {
		ev.norm = boot.norm
	}

	pres := anneal.RunParallel(reps, anneal.ParallelOptions{
		Schedule: anneal.Options{Iterations: cfg.SAIterations, Ctx: ctx},
		SwapSeed: swapSeed,
		OnStride: func(done, total int, best float64) {
			cfg.emit(ProgressEvent{Stage: StageAnneal, Done: done, Total: total, Cost: best})
		},
	})

	var stats EvalStats
	addEvalStats(&stats, &boot.stats)
	for _, ev := range evs {
		addEvalStats(&stats, &ev.stats)
	}
	stats.AnnealBestCost = pres.BestCost
	stats.Replicas = k
	stats.ReplicaSwapAttempts = pres.SwapAttempts
	stats.ReplicaSwapAccepts = pres.SwapAccepts
	stats.ReplicaBest = pres.Best

	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	best := bests[pres.Best]
	if best == nil {
		best = evs[pres.Best].fp
	}
	return best, stats, nil
}

// addEvalStats accumulates src into dst: every effort counter sums, the
// cross-check drift takes the max. The Replica* fields are run-level,
// set by runParallelAnneal after merging, and are not touched here.
func addEvalStats(dst, src *EvalStats) {
	dst.Evals += src.Evals
	dst.FullEvals += src.FullEvals
	dst.IncrementalEvals += src.IncrementalEvals
	dst.VoltRefreshes += src.VoltRefreshes
	dst.VoltIncrementalRefreshes += src.VoltIncrementalRefreshes
	dst.VoltCandidatesReused += src.VoltCandidatesReused
	dst.VoltCandidatesRegrown += src.VoltCandidatesRegrown
	dst.VoltCrossChecks += src.VoltCrossChecks
	dst.EntropyPatched += src.EntropyPatched
	dst.EntropyRebuilt += src.EntropyRebuilt
	dst.EntropyCrossChecks += src.EntropyCrossChecks
	dst.DiesRepacked += src.DiesRepacked
	dst.DiesReused += src.DiesReused
	dst.NetsRecomputed += src.NetsRecomputed
	dst.NetsReused += src.NetsReused
	dst.ResponsesComputed += src.ResponsesComputed
	dst.ResponsesReused += src.ResponsesReused
	dst.CrossChecks += src.CrossChecks
	if src.MaxCrossCheckError > dst.MaxCrossCheckError {
		dst.MaxCrossCheckError = src.MaxCrossCheckError
	}
	dst.PackMoves += src.PackMoves
	dst.PackDieDiffs += src.PackDieDiffs
	dst.PackEarlyExits += src.PackEarlyExits
	dst.PackReplayedPositions += src.PackReplayedPositions
	dst.PackChangedModules += src.PackChangedModules
	if src.PackChangedHist != nil {
		if dst.PackChangedHist == nil {
			dst.PackChangedHist = make([]int, len(src.PackChangedHist))
		}
		for i, c := range src.PackChangedHist {
			dst.PackChangedHist[i] += c
		}
	}
}
