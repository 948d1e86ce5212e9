// Performance benchmarks for the two hot paths this repo optimizes: the
// annealing loop's cost evaluation (incremental caches vs full recompute)
// and the detailed thermal solver (parallel red-black SOR vs serial). See
// docs/BENCHMARKS.md for the reproducible workflow and recorded baselines;
// scripts/bench.sh runs the suite and archives results.
//
// The anneal-loop legs share every optimization outside the evaluator
// (swept adjacency, prefix-resumed packing, shared-prefix entropy sums), so
// their ratio isolates the incremental caching itself. The recorded
// wall-clock baselines in docs/BENCHMARKS.md capture the full speedup.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/thermal"
)

// annealLoopRun executes the SA search (no post-processing) — the flow's
// hot path — at a fixed budget so legs are comparable.
func annealLoopRun(b *testing.B, name string, fullRecompute bool, iters int) *core.Result {
	b.Helper()
	des := bench.MustGenerate(name)
	post := false
	res, err := core.Run(des, core.Config{
		Mode:          core.TSCAware,
		SAIterations:  iters,
		Seed:          1,
		PostProcess:   &post,
		FullRecompute: fullRecompute,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAnnealLoop times the annealing loop in two legs — the
// full-recompute reference and the shipped incremental evaluator — on a
// small (n100) and a large (ibm01) benchmark. Both legs must find the
// identical best floorplan (asserted by TestFlowIncrementalMatchesFull in
// internal/core).
func BenchmarkAnnealLoop(b *testing.B) {
	iters := benchIters()
	for _, name := range []string{"n100", "ibm01"} {
		for _, leg := range []struct {
			label         string
			fullRecompute bool
		}{
			{"full-recompute", true},
			// Named after BENCH_bfda70f.json's shipped-default row, so scripts/benchdiff keeps gating against it.
			{"incremental-sta", false},
		} {
			b.Run(fmt.Sprintf("%s/%s", name, leg.label), func(b *testing.B) {
				var st core.EvalStats
				for i := 0; i < b.N; i++ {
					st = annealLoopRun(b, name, leg.fullRecompute, iters).EvalStats
				}
				if st.Evals > 0 {
					b.ReportMetric(float64(st.NetsReused)/float64(st.Evals), "nets_reused/eval")
					b.ReportMetric(float64(st.DiesReused)/float64(st.Evals), "dies_reused/eval")
				}
				if st.VoltCandidatesReused+st.VoltCandidatesRegrown > 0 {
					b.ReportMetric(float64(st.VoltCandidatesReused)/
						float64(st.VoltCandidatesReused+st.VoltCandidatesRegrown), "volt_cands_reused_frac")
				}
				if st.EntropyPatched+st.EntropyRebuilt > 0 {
					b.ReportMetric(float64(st.EntropyPatched)/
						float64(st.EntropyPatched+st.EntropyRebuilt), "entropy_patched_frac")
				}
				// Churn report: how exact the diff packer's changed sets
				// are at the default knobs.
				if st.PackMoves > 0 {
					b.ReportMetric(float64(st.PackChangedPercentile(0.50)), "pack_changed_p50")
					b.ReportMetric(float64(st.PackChangedPercentile(0.95)), "pack_changed_p95")
				}
				if st.PackDieDiffs > 0 {
					b.ReportMetric(float64(st.PackEarlyExits)/float64(st.PackDieDiffs), "pack_early_exit_frac")
					b.ReportMetric(float64(st.PackReplayedPositions)/float64(st.PackDieDiffs), "pack_replayed/diff")
				}
			})
		}
	}
}

// BenchmarkAnnealReplicas times the parallel annealer at 1/2/4/8 tempered
// replicas, on the full incremental stack (thermal fan-out serial inside each
// worker, the Config default under replicas). Every chain runs the full
// iteration budget, so higher replica counts spend cores on search quality
// rather than a shorter loop; best_cost reports the best annealing cost
// reached, on a scale shared across legs of one benchmark/seed (the parallel
// annealer normalizes against the serial path's Seed-derived reference
// floorplan). docs/BENCHMARKS.md derives the quality-per-wall-clock comparison
// from the recorded best_cost/ns-op pairs.
func BenchmarkAnnealReplicas(b *testing.B) {
	iters := benchIters()
	for _, name := range []string{"n100", "ibm01"} {
		for _, replicas := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/repl-%d", name, replicas), func(b *testing.B) {
				des := bench.MustGenerate(name)
				post := false
				var st core.EvalStats
				for i := 0; i < b.N; i++ {
					res, err := core.Run(des, core.Config{
						Mode:         core.TSCAware,
						SAIterations: iters,
						Seed:         1,
						PostProcess:  &post,
						Replicas:     replicas,
					})
					if err != nil {
						b.Fatal(err)
					}
					st = res.EvalStats
				}
				b.ReportMetric(st.AnnealBestCost, "best_cost")
				if st.ReplicaSwapAttempts > 0 {
					b.ReportMetric(float64(st.ReplicaSwapAccepts)/
						float64(st.ReplicaSwapAttempts), "swap_accept_frac")
				}
			})
		}
	}
}

// BenchmarkDetailedSolve times one steady-state solve of the detailed
// red-black SOR solver, serial vs fanned across all cores. Both produce
// byte-identical fields (TestParallelSteadySolveMatchesSerial).
func BenchmarkDetailedSolve(b *testing.B) {
	const n = 64
	power := geom.NewGrid(n, n)
	rng := rand.New(rand.NewSource(1))
	for i := range power.Data {
		power.Data[i] = rng.Float64() * 0.01
	}
	for _, leg := range []struct {
		label   string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(leg.label, func(b *testing.B) {
			stack := thermal.NewStack(thermal.DefaultConfig(n, n, 4000, 4000, 2))
			stack.SetDiePower(0, power)
			stack.SetDiePower(1, power)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st := stack.SolveSteady(nil, thermal.SolverOpts{Tol: 1e-5, Workers: leg.workers})
				if !st.Converged {
					b.Fatal("solver did not converge")
				}
			}
		})
	}
}

// BenchmarkFastEstimate times the in-loop power-blurring estimate, serial vs
// parallel separable convolution.
func BenchmarkFastEstimate(b *testing.B) {
	const n = 64
	fe := thermal.CalibrateFast(thermal.DefaultConfig(n, n, 4000, 4000, 2))
	rng := rand.New(rand.NewSource(2))
	maps := make([]*geom.Grid, 2)
	for d := range maps {
		maps[d] = geom.NewGrid(n, n)
		for i := range maps[d].Data {
			maps[d].Data[i] = rng.Float64() * 0.01
		}
	}
	for _, leg := range []struct {
		label   string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(leg.label, func(b *testing.B) {
			fe.SetWorkers(leg.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fe.Estimate(maps)
			}
		})
	}
}
