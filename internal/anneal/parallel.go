package anneal

import (
	"math"
	"math/rand"
	"sync"
)

// Replica is one parallel-tempering chain handed to RunParallel. It walks
// exactly like Run: one Perturb per move, one conditional uphill draw.
type Replica struct {
	Problem Problem
	// RNG drives this replica's walk. Each replica needs an independent
	// stream; RunParallel consumes it deterministically, never concurrently.
	RNG *rand.Rand
	// OnBest, when non-nil, fires whenever this replica improves on its best
	// cost, with Problem holding the corresponding state. It runs on the
	// replica's stride goroutine; replicas may fire concurrently with each
	// other (but never with themselves).
	OnBest func(cost float64)
}

// ParallelOptions tunes RunParallel beyond the per-replica schedule.
//
// Zero-value semantics follow Options: every numeric field treats 0 as "use
// the default".
type ParallelOptions struct {
	// Schedule is the per-replica annealing schedule. OnBest and OnChain must
	// be nil — the per-replica best hook lives on Replica, and chain-level
	// progress is reported through OnStride at the swap barriers (the chains
	// themselves run concurrently, so a per-chain callback would race).
	Schedule Options
	// SwapEvery is the number of moves each replica runs between swap
	// barriers. Zero value: one temperature chain (Schedule.ChainLength).
	// Rounded up to the next chain multiple so swaps always happen at
	// temperature boundaries and every rung cools in lockstep.
	SwapEvery int
	// LadderFactor is the geometric spacing of the temperature ladder: rung r
	// starts at factor^r times the calibrated base temperature. Zero value:
	// 1.5.
	LadderFactor float64
	// SwapSeed seeds the dedicated swap RNG. Swap decisions consume their own
	// stream — never a replica's — so the per-replica walks are independent
	// of the swap schedule.
	SwapSeed int64
	// OnStride, when non-nil, is invoked on the coordinator goroutine after
	// every swap barrier with the per-replica moves consumed so far, the
	// total budget, and the best cost over all replicas.
	OnStride func(done, total int, best float64)
}

// ParallelResult reports a RunParallel outcome.
type ParallelResult struct {
	// Replicas holds each replica's own Result, index-aligned with the input.
	Replicas []Result
	// Best indexes the replica with the lowest BestCost (lowest index wins
	// ties); BestCost is that cost.
	Best     int
	BestCost float64
	// SwapAttempts/SwapAccepts count the Metropolis neighbor-swap decisions
	// taken at the stride barriers.
	SwapAttempts int
	SwapAccepts  int
	// Cancelled reports that Schedule.Ctx was done before the budget ran out.
	Cancelled bool
}

// repState is one replica's mutable search state. During a stride it is
// owned exclusively by the replica's goroutine; between strides (after the
// WaitGroup barrier) the coordinator reads costs and swaps temperatures.
type repState struct {
	res       Result
	cur       float64
	temp      float64
	calTemp   float64
	cancelled bool
}

// RunParallel anneals K replicas of the problem on a geometric temperature
// ladder with periodic Metropolis neighbor swaps (replica exchange /
// parallel tempering).
//
// Determinism contract: for fixed inputs (problem states, per-replica RNG
// seeds, SwapSeed, schedule) the outcome is byte-identical on every run and
// for every GOMAXPROCS — replicas interact only at the swap barriers, swap
// decisions consume a dedicated RNG in fixed pair order, and every reduction
// runs in index order. A single replica walks bit-identically to Run on the
// same RNG.
//
// RunParallel panics on structurally invalid input (no replicas, a replica
// without a problem or RNG, schedule hooks set); use Schedule.Validate for
// value errors, as with Run.
func RunParallel(reps []Replica, opts ParallelOptions) ParallelResult {
	if len(reps) == 0 {
		panic("anneal: RunParallel needs at least one replica")
	}
	for i := range reps {
		if reps[i].Problem == nil {
			panic("anneal: replica without a problem")
		}
		if reps[i].RNG == nil {
			panic("anneal: replica without an RNG stream")
		}
	}
	sched := opts.Schedule
	if sched.OnBest != nil || sched.OnChain != nil {
		panic("anneal: Schedule.OnBest/OnChain must be nil (use Replica.OnBest and ParallelOptions.OnStride)")
	}
	sched.defaults()
	if opts.LadderFactor == 0 {
		opts.LadderFactor = 1.5
	}
	if opts.SwapEvery == 0 {
		opts.SwapEvery = sched.ChainLength
	}
	if r := opts.SwapEvery % sched.ChainLength; r != 0 {
		opts.SwapEvery += sched.ChainLength - r
	}

	k := len(reps)
	states := make([]repState, k)

	// Calibrate every replica concurrently on its own RNG stream, exactly as
	// Run does.
	var wg sync.WaitGroup
	for r := range reps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			st := &states[r]
			st.cur, st.calTemp = calibrate(reps[r].Problem, reps[r].RNG, &sched)
		}(r)
	}
	wg.Wait()

	// Temperature ladder: rung r starts at base·factor^r, where base is the
	// index-ordered mean of the calibrated temperatures (index order keeps
	// the float sum scheduling-independent). Rung 0 anneals nearest the
	// serial schedule; higher rungs run hotter and trade states down the
	// ladder through swaps.
	base := 0.0
	for r := range states {
		base += states[r].calTemp
	}
	base /= float64(k)
	for r := range states {
		st := &states[r]
		st.temp = base * math.Pow(opts.LadderFactor, float64(r))
		st.res.StartTemp = st.temp
		st.res.BestCost = st.cur
		if reps[r].OnBest != nil {
			reps[r].OnBest(st.cur)
		}
	}

	res := ParallelResult{Replicas: make([]Result, k)}
	swapRNG := rand.New(rand.NewSource(opts.SwapSeed))
	done := 0
	for stride := 0; done < sched.Iterations; stride++ {
		n := sched.Iterations - done
		if n > opts.SwapEvery {
			n = opts.SwapEvery
		}
		for r := range reps {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				states[r].runStride(&reps[r], &sched, done, n)
			}(r)
		}
		wg.Wait()
		cancelled := sched.Ctx != nil && sched.Ctx.Err() != nil
		for r := range states {
			cancelled = cancelled || states[r].cancelled
		}
		if cancelled {
			res.Cancelled = true
			break
		}
		done += n

		// Neighbor swaps at the barrier: alternating parity pairs — even
		// strides attempt (0,1)(2,3)…, odd strides (1,2)(3,4)… — in fixed
		// order on the dedicated swap RNG. The Metropolis criterion
		// exp((C_i−C_j)(1/T_i−1/T_j)) exchanges the two rungs' current
		// temperatures (equivalently, the configurations trade places on the
		// ladder); states, RNG streams, and best snapshots stay put.
		if k > 1 && done < sched.Iterations {
			for i := stride % 2; i+1 < k; i += 2 {
				a, b := &states[i], &states[i+1]
				res.SwapAttempts++
				u := swapRNG.Float64()
				if u < math.Exp((a.cur-b.cur)*(1/a.temp-1/b.temp)) {
					a.temp, b.temp = b.temp, a.temp
					res.SwapAccepts++
				}
			}
		}
		if opts.OnStride != nil {
			best := math.Inf(1)
			for r := range states {
				if states[r].res.BestCost < best {
					best = states[r].res.BestCost
				}
			}
			opts.OnStride(done, sched.Iterations, best)
		}
	}

	best := 0
	for r := range states {
		st := &states[r]
		st.res.FinalCost = st.cur
		st.res.FinalTemp = st.temp
		if st.cancelled {
			st.res.Cancelled = true
		}
		res.Replicas[r] = st.res
		if st.res.BestCost < states[best].res.BestCost {
			best = r
		}
	}
	res.Best = best
	res.BestCost = states[best].res.BestCost
	return res
}

// runStride advances the replica by up to n moves of Run's loop starting at
// global move index start, cooling at every chain boundary it crosses.
func (st *repState) runStride(rep *Replica, sched *Options, start, n int) {
	for done := 0; done < n; done++ {
		if sched.Ctx != nil && sched.Ctx.Err() != nil {
			st.cancelled = true
			return
		}
		st.cur = step(rep.Problem, rep.RNG, st.cur, st.temp, &st.res, rep.OnBest)
		if (start+done+1)%sched.ChainLength == 0 {
			st.temp *= sched.Alpha
		}
		st.res.Iterations++
	}
}
