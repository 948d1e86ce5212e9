// Package anneal provides the simulated-annealing search engine driving the
// floorplanner, mirroring Corblivar's adaptive SA: the start temperature is
// calibrated from the cost deltas of a random walk, cooling is geometric
// with fixed-length chains per temperature, and the best-seen solution is
// snapshotted through a caller-provided hook (the engine itself is agnostic
// of the state representation).
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// Problem is the state the annealer optimizes. Cost must reflect the current
// state; Perturb must mutate the state and return an undo closure that
// restores it exactly. The annealer calls them in a fixed order: every
// Perturb is followed by Cost or by its undo before the next Perturb.
type Problem interface {
	Cost() float64
	Perturb(rng *rand.Rand) (undo func())
}

// Options tunes the schedule.
//
// Zero-value semantics: every numeric field treats 0 as "use the default" —
// 0 can NEVER mean "disable" or "literally zero". An Options value that asks
// for a literal zero anywhere (zero iterations, a zero initial acceptance
// probability, a zero-length chain) is unrepresentable; the zero value of
// the whole struct is simply the default schedule. Use Validate to reject
// nonsensical explicit values before Run silently reinterprets them.
type Options struct {
	// Iterations is the total number of proposed moves.
	// Zero value: defaults to 5000 (it does not disable the search).
	Iterations int
	// ChainLength is the number of moves per temperature step.
	// Zero value: defaults to Iterations/50, floored at 1. NOTE: the
	// derived default changes with Iterations — an explicit ChainLength
	// frozen from one budget does not adapt when the budget changes.
	ChainLength int
	// InitAcceptProb calibrates the start temperature so that an average
	// uphill move is accepted with this probability.
	// Zero value: defaults to 0.8. A literal 0 (never accept uphill at the
	// start, i.e. greedy descent) is therefore unrepresentable; use a tiny
	// positive value such as 1e-9 for an effectively greedy schedule.
	InitAcceptProb float64
	// Alpha is the geometric cooling factor per chain.
	// Zero value: derived so the final temperature is 1e-4 of the start
	// temperature after Iterations/ChainLength chains.
	Alpha float64
	// CalibrationMoves is the random-walk length used to estimate the cost
	// scale. Zero value: defaults to 50 (a zero-move calibration is
	// unrepresentable; the walk also seeds the temperature, so disabling it
	// would start the schedule from a degenerate estimate).
	CalibrationMoves int
	// OnBest, when non-nil, is invoked whenever a new best cost is seen;
	// the callee should snapshot the state.
	OnBest func(cost float64)
	// OnChain, when non-nil, is invoked after every completed temperature
	// chain with the number of proposed moves so far, the total budget, and
	// the best cost seen — the hook driving progress reporting.
	OnChain func(done, total int, best float64)
	// Ctx, when non-nil, is polled between moves; when it is cancelled the
	// search stops early and Result.Cancelled is set. The state still holds
	// whatever the walk last accepted, and OnBest snapshots remain valid.
	Ctx context.Context
}

// Validate rejects option values the zero-value defaulting would otherwise
// silently reinterpret: negatives everywhere, and probabilities or cooling
// factors outside their open intervals. A nil error means Run will use the
// options as documented (with zeros replaced by defaults).
func (o *Options) Validate() error {
	if o.Iterations < 0 {
		return fmt.Errorf("anneal: negative Iterations %d", o.Iterations)
	}
	if o.ChainLength < 0 {
		return fmt.Errorf("anneal: negative ChainLength %d", o.ChainLength)
	}
	if o.CalibrationMoves < 0 {
		return fmt.Errorf("anneal: negative CalibrationMoves %d", o.CalibrationMoves)
	}
	if o.InitAcceptProb < 0 || o.InitAcceptProb >= 1 {
		return fmt.Errorf("anneal: InitAcceptProb %v outside [0, 1) (0 selects the default 0.8)", o.InitAcceptProb)
	}
	if o.Alpha < 0 || o.Alpha >= 1 {
		return fmt.Errorf("anneal: Alpha %v outside [0, 1) (0 derives the cooling factor)", o.Alpha)
	}
	return nil
}

func (o *Options) defaults() {
	if o.Iterations == 0 {
		o.Iterations = 5000
	}
	if o.ChainLength == 0 {
		o.ChainLength = o.Iterations / 50
		if o.ChainLength < 1 {
			o.ChainLength = 1
		}
	}
	if o.InitAcceptProb == 0 {
		o.InitAcceptProb = 0.8
	}
	if o.CalibrationMoves == 0 {
		o.CalibrationMoves = 50
	}
	if o.Alpha == 0 {
		chains := float64(o.Iterations) / float64(o.ChainLength)
		if chains < 1 {
			chains = 1
		}
		// T_end/T_start = 1e-4 after `chains` multiplications.
		o.Alpha = math.Pow(1e-4, 1/chains)
	}
}

// Result reports the search outcome.
type Result struct {
	Iterations int
	Accepted   int
	Uphill     int
	BestCost   float64
	FinalCost  float64
	StartTemp  float64
	FinalTemp  float64
	// Cancelled reports that Options.Ctx was done before the budget ran out.
	Cancelled bool
}

// Run anneals the problem. The caller's OnBest hook is responsible for
// snapshotting best states; after Run returns, the problem is in its final
// (not necessarily best) state.
func Run(p Problem, opts Options, rng *rand.Rand) Result {
	opts.defaults()

	cur, temp := calibrate(p, rng, &opts)

	res := Result{StartTemp: temp, BestCost: cur}
	if opts.OnBest != nil {
		opts.OnBest(cur)
	}
	for it := 0; it < opts.Iterations; it++ {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		cur = step(p, rng, cur, temp, &res, opts.OnBest)
		if (it+1)%opts.ChainLength == 0 {
			temp *= opts.Alpha
			if opts.OnChain != nil {
				opts.OnChain(it+1, opts.Iterations, res.BestCost)
			}
		}
		res.Iterations++
	}
	res.FinalCost = cur
	res.FinalTemp = temp
	return res
}

// calibrate returns the current cost and the start temperature at which a
// move of the mean |ΔC| along a random walk of CalibrationMoves is accepted
// with probability InitAcceptProb. Every walked move is undone.
func calibrate(p Problem, rng *rand.Rand, opts *Options) (cur, temp float64) {
	cur = p.Cost()
	meanDelta := 0.0
	walked := 0
	for i := 0; i < opts.CalibrationMoves; i++ {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			break
		}
		undo := mustPerturb(p, rng)
		c := p.Cost()
		meanDelta += math.Abs(c - cur)
		walked++
		undo()
	}
	if walked > 0 {
		meanDelta /= float64(walked)
	}
	if meanDelta <= 0 {
		meanDelta = math.Abs(cur)*0.01 + 1e-12
	}
	return cur, -meanDelta / math.Log(opts.InitAcceptProb)
}

// step proposes one move from current cost cur at temperature temp and
// returns the new current cost. A downhill move is always accepted; an
// uphill one draws from rng and is accepted with the Metropolis probability,
// otherwise undone. Accepts, uphill accepts and a new best (which fires
// onBest when non-nil) are recorded in res.
func step(p Problem, rng *rand.Rand, cur, temp float64, res *Result, onBest func(float64)) float64 {
	undo := mustPerturb(p, rng)
	c := p.Cost()
	delta := c - cur
	accept := delta <= 0
	if !accept && rng.Float64() < math.Exp(-delta/temp) {
		accept = true
		res.Uphill++
	}
	if !accept {
		undo()
		return cur
	}
	res.Accepted++
	if c < res.BestCost {
		res.BestCost = c
		if onBest != nil {
			onBest(c)
		}
	}
	return c
}

func mustPerturb(p Problem, rng *rand.Rand) func() {
	undo := p.Perturb(rng)
	if undo == nil {
		panic("anneal: Perturb returned nil undo")
	}
	return undo
}
