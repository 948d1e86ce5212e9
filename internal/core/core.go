// Package core implements the paper's primary contribution: thermal
// side-channel-aware 3D floorplanning (Fig. 3). It orchestrates the
// substrates — floorplan representation and annealing, fast and detailed
// thermal analysis, timing, voltage assignment, TSV planning, leakage
// metrics, activity sampling — into the two experimental setups of Sec. 7:
//
//   - power-aware floorplanning (PA): packing, wirelength, critical delay,
//     peak temperature, and voltage assignment optimized together (the
//     competitive baseline);
//   - TSC-aware floorplanning (TSC): the same criteria plus minimization of
//     the power/thermal correlation (Eq. 1) and the spatial entropy of the
//     power maps (Eq. 3), a TSC-oriented voltage-assignment objective, and
//     the correlation-stability-guided dummy-TSV post-processing of
//     Sec. 6.2.
package core

import (
	"time"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/thermal"
	"repro/internal/timing"
	"repro/internal/tsv"
	"repro/internal/volt"
)

// Mode selects the experimental setup.
type Mode int

const (
	// PowerAware is the paper's baseline setup (i).
	PowerAware Mode = iota
	// TSCAware is the paper's proposed setup (ii).
	TSCAware
)

func (m Mode) String() string {
	if m == TSCAware {
		return "TSC-aware"
	}
	return "power-aware"
}

// PostCriterion selects the correlation watched by the dummy-TSV stop rule.
type PostCriterion int

const (
	// BottomDie accepts insertions while |r_1| drops (default; the bottom
	// die is the protectable one).
	BottomDie PostCriterion = iota
	// AllDies accepts insertions while the mean |r_d| over dies drops.
	AllDies
)

// Weights are the multi-objective cost weights. The paper weights all
// criteria equally (Sec. 7); each term is normalized to its initial value
// before weighting, so 1.0 everywhere reproduces that setup.
type Weights struct {
	OutlineViolation float64
	Wirelength       float64
	CriticalDelay    float64
	PeakTemp         float64
	Power            float64
	VoltageVolumes   float64
	Correlation      float64 // TSC-aware only
	SpatialEntropy   float64 // TSC-aware only
	// DesignRule is Corblivar's thermal design rule (Sec. 7.2): the
	// fraction of power placed away from the heatsink-side die is
	// penalized, pushing high-power modules toward the top die. The paper
	// notes that relaxing this rule "prohibitively increases the peak
	// temperatures" — BenchmarkAblationDesignRule reproduces that.
	DesignRule float64
}

// DefaultWeights returns equal weighting, with the leakage terms enabled
// only in TSC mode. Outline violation carries a high weight because it is a
// legality constraint, not a quality trade-off.
func DefaultWeights(mode Mode) Weights {
	w := Weights{
		OutlineViolation: 8,
		Wirelength:       1,
		CriticalDelay:    1,
		PeakTemp:         1,
		Power:            1,
		VoltageVolumes:   0.25,
		DesignRule:       0.5,
	}
	if mode == TSCAware {
		// The leakage terms carry extra weight: the classical criteria
		// already pull toward compact, hot-spot-concentrated layouts, and
		// an equally-weighted correlation term cannot overcome that pull at
		// our (much smaller than the paper's) annealing budgets.
		w.Correlation = 3
		w.SpatialEntropy = 1.5
	}
	return w
}

// Config tunes one floorplanning run.
type Config struct {
	Mode Mode
	// GridN is the lateral resolution of the thermal and leakage grids.
	// Default 32.
	GridN int
	// SAIterations is the annealing budget. Default 3000.
	SAIterations int
	// VoltEvery re-runs voltage assignment every k-th accepted evaluation
	// (the paper integrates it continuously; the stride keeps runtime at
	// the reported ~30% overhead). Default 10.
	VoltEvery int
	// ActivitySamples is m of Eq. 2; the paper uses 100. Default 100.
	ActivitySamples int
	// ActivitySigma is the relative power sigma; the paper uses 0.10.
	ActivitySigma float64
	// PostProcess enables the dummy-TSV insertion stage (TSC mode).
	// Nil defaults to true in TSC mode, false in PA mode.
	PostProcess *bool
	// MaxDummyGroups bounds post-processing insertions. Default 64.
	MaxDummyGroups int
	// DummyViasPerGroup is the island size of each inserted dummy group.
	// Default 8.
	DummyViasPerGroup int
	// PostCriterion selects which correlation the dummy-TSV stop rule
	// watches. The paper tracks "the resulting average correlation" and
	// separately suggests focusing on critical regions; the bottom die is
	// the one the flow can actually protect (Sec. 7.2 explains why the top
	// die is structurally compromised by the heatsink design rule), so
	// BottomDie is the default.
	PostCriterion PostCriterion
	// ProtectModules, when non-empty, switches the post-processing stage
	// to the paper's Sec. 7.1 adaptation: dummy TSVs target only the bins
	// covered by these (security-critical) modules, the stop rule watches
	// the correlation over those bins, and "more stable correlations
	// elsewhere" are accepted. Module indices into Design.Modules.
	ProtectModules []int
	// Weights override; zero value selects DefaultWeights(Mode).
	Weights *Weights
	// Seed drives all stochastic stages.
	Seed int64
	// TimingParams override; zero value selects timing.DefaultParams().
	TimingParams *timing.Params
	// VoltTargetFactor relaxes the timing target for voltage assignment.
	// Default 1.15.
	VoltTargetFactor float64
	// Parallelism bounds the worker goroutines fanned out by the detailed
	// thermal solver's red-black SOR sweeps and the fast estimator's
	// separable convolutions. 0 selects GOMAXPROCS; 1 forces the serial
	// path. Results are byte-identical for every setting.
	Parallelism int
	// Replicas runs K tempered annealing chains (parallel tempering): each
	// replica anneals on its own RNG stream at its rung of a geometric
	// temperature ladder, neighbours periodically swap temperatures by the
	// Metropolis criterion, and the best replica's floorplan feeds the
	// rest of the flow. 0 and 1 select the single-chain serial path, which
	// is bit-identical to pre-replica releases at a fixed seed. K >= 2 is
	// its own deterministic contract: a fixed (Seed, Replicas) pair yields
	// a byte-identical Result for any GOMAXPROCS, but the result differs
	// from the serial walk.
	Replicas int
	// FullRecompute selects the full-recompute evaluator (cost.go), which
	// packs the whole floorplan and recomputes every cost term from scratch
	// on every move. The zero value selects the incremental evaluator
	// (incremental.go), which repacks only the moved dies and patches
	// cached per-net, per-die, voltage and entropy state. Both find the
	// identical best floorplan for a fixed seed; the full path is kept as
	// the reference that tests and the anneal-loop benchmark compare
	// against.
	FullRecompute bool
	// CostCrossCheck re-evaluates every annealing move through the full
	// recompute path and panics if the incremental cost drifts beyond
	// 1e-9 (relative). It additionally pins every incremental voltage
	// refresh against a fresh volt.Assign (identical volumes, TotalPower
	// within 1e-9) and every patched per-die entropy against a from-scratch
	// leakage.SpatialEntropy (1e-9 relative). Debug aid: it forfeits the
	// entire speedup, and has no effect under FullRecompute.
	CostCrossCheck bool
	// Progress, when non-nil, receives per-stage events as the flow
	// advances. The callback runs synchronously on the flow goroutine and
	// must be cheap; it must not retain the event past the call.
	Progress func(ProgressEvent)
}

// Stage identifies one phase of the flow (Fig. 3) in progress events.
type Stage string

const (
	// StageAnneal is the simulated-annealing floorplanning search.
	StageAnneal Stage = "anneal"
	// StageFinalize covers TSV planning, voltage assignment, and the
	// detailed thermal verification.
	StageFinalize Stage = "finalize"
	// StageSampling is the activity-sampling loop of the post-processing
	// stage (Eq. 2 inputs).
	StageSampling Stage = "sampling"
	// StagePostProcess is the iterative dummy-TSV insertion (Sec. 6.2).
	StagePostProcess Stage = "post-process"
	// StageDone fires once, after metrics are final.
	StageDone Stage = "done"
)

// ProgressEvent is one progress update. Done/Total count stage-local units
// (annealing moves, activity samples, dummy groups); Total is 0 when the
// stage has no meaningful denominator. Cost carries the best annealing cost
// seen so far during StageAnneal and the watched correlation during
// StagePostProcess; it is 0 elsewhere.
type ProgressEvent struct {
	Stage Stage
	Done  int
	Total int
	Cost  float64
}

func (c *Config) defaults() {
	if c.GridN == 0 {
		c.GridN = 32
	}
	if c.SAIterations == 0 {
		c.SAIterations = 3000
	}
	if c.VoltEvery == 0 {
		c.VoltEvery = 10
	}
	if c.ActivitySamples == 0 {
		c.ActivitySamples = 100
	}
	if c.ActivitySigma == 0 {
		c.ActivitySigma = 0.10
	}
	if c.PostProcess == nil {
		pp := c.Mode == TSCAware
		c.PostProcess = &pp
	}
	if c.MaxDummyGroups == 0 {
		c.MaxDummyGroups = 64
	}
	if c.DummyViasPerGroup == 0 {
		c.DummyViasPerGroup = 8
	}
	if c.Weights == nil {
		w := DefaultWeights(c.Mode)
		c.Weights = &w
	}
	if c.TimingParams == nil {
		tp := timing.DefaultParams()
		c.TimingParams = &tp
	}
	if c.VoltTargetFactor == 0 {
		c.VoltTargetFactor = 1.15
	}
	// Replica workers are the annealing loop's own use of the cores;
	// defaulting the thermal fan-out to serial inside each worker avoids
	// oversubscribing GOMAXPROCS with nested pools. An explicit Parallelism
	// still wins.
	if c.Replicas > 1 && c.Parallelism == 0 {
		c.Parallelism = 1
	}
}

// EvalStats reports the annealing-loop evaluation effort: how many cost
// evaluations ran, how much work the incremental caches avoided, and how far
// the optional cross-check saw the incremental cost drift from the full
// recompute (0 unless Config.CostCrossCheck was set).
type EvalStats struct {
	// Evals counts cost evaluations; FullEvals of those rebuilt every term
	// from scratch, IncrementalEvals served from the caches.
	Evals            int
	FullEvals        int
	IncrementalEvals int
	// VoltRefreshes counts voltage-assignment re-runs (the VoltEvery
	// stride); VoltIncrementalRefreshes of those were served by the cached
	// volt.Assigner instead of a from-scratch volt.Assign.
	VoltRefreshes            int
	VoltIncrementalRefreshes int
	// VoltCandidatesReused/VoltCandidatesRegrown count the Assigner's cached
	// per-root candidate trees served as-is vs regrown because a module's
	// adjacency or feasible-level mask changed.
	VoltCandidatesReused  int
	VoltCandidatesRegrown int
	// VoltCrossChecks counts incremental-vs-full voltage-assignment
	// comparisons (0 unless Config.CostCrossCheck was set).
	VoltCrossChecks int
	// EntropyPatched/EntropyRebuilt count per-die spatial-entropy refreshes
	// served by patching the entropy cache vs rebuilt from scratch (first
	// use, voltage-scale changes, wholesale map changes);
	// EntropyCrossChecks counts patched-vs-full comparisons (0 unless
	// Config.CostCrossCheck was set).
	EntropyPatched     int
	EntropyRebuilt     int
	EntropyCrossChecks int
	// STAPatches, STAModulesRecomputed and STAGateTrips counted the work of
	// the retired incremental timing caches. The evaluator now runs every
	// STA pass in full, so all three are always zero; they remain only
	// because perfbench/flow.go still reads them.
	STAPatches           int
	STAModulesRecomputed int
	STAGateTrips         int
	// DiesRepacked/DiesReused count per-die skyline packings run vs skipped.
	DiesRepacked int
	DiesReused   int
	// NetsRecomputed/NetsReused count per-net wirelength+Elmore refreshes
	// run vs served from cache.
	NetsRecomputed int
	NetsReused     int
	// ResponsesComputed/ResponsesReused count per-source-die thermal blur
	// responses run vs served from cache.
	ResponsesComputed int
	ResponsesReused   int
	// CrossChecks counts full-recompute comparisons; MaxCrossCheckError is
	// the largest |incremental - full| cost difference they observed.
	CrossChecks        int
	MaxCrossCheckError float64
	// Replicas records the tempered-chain count when the parallel annealer
	// ran (0 on the serial path); ReplicaSwapAttempts/ReplicaSwapAccepts
	// count the Metropolis temperature-swap decisions across the ladder and
	// ReplicaBest is the index of the chain that produced the final
	// floorplan.
	Replicas            int
	ReplicaSwapAttempts int
	ReplicaSwapAccepts  int
	ReplicaBest         int
	// AnnealBestCost is the best (normalized, weighted) annealing cost the
	// search reached — the quality the replica ladder buys. It is a core
	// diagnostic only: the tscfp wire schema does not carry it, so serial
	// result encodings are unchanged.
	AnnealBestCost float64
	// PackMoves counts moves applied through the diff-producing repack
	// (PackDieFromDiff); PackDieDiffs the per-die diffs they ran (a move
	// touches one or two dies); PackEarlyExits the diffs that stopped early
	// because the resumed skyline re-converged with the pre-move snapshot;
	// PackReplayedPositions the sequence positions actually replayed (vs
	// whole-suffix under the old pessimistic contract); and
	// PackChangedModules the modules whose placement actually changed —
	// the exact churn every downstream engine gate now sees.
	PackMoves             int
	PackDieDiffs          int
	PackEarlyExits        int
	PackReplayedPositions int
	PackChangedModules    int
	// PackChangedHist is a per-move histogram of exact changed-set sizes:
	// bucket i counts moves that changed i modules, with the last bucket
	// absorbing everything >= len-1. Percentiles via PackChangedPercentile.
	PackChangedHist []int
}

// packHistBuckets bounds the changed-set-size histogram; ibm01-class moves
// stay far below it, and anything larger lands in the overflow bucket.
const packHistBuckets = 512

// recordPackChanged tallies one move's exact changed-set size.
func (s *EvalStats) recordPackChanged(n int) {
	if s.PackChangedHist == nil {
		s.PackChangedHist = make([]int, packHistBuckets)
	}
	if n >= len(s.PackChangedHist) {
		n = len(s.PackChangedHist) - 1
	}
	s.PackChangedHist[n]++
	s.PackChangedModules += n
}

// PackChangedPercentile returns the p-quantile (p in [0,1]) of the per-move
// changed-set sizes from the histogram: the smallest size s such that at
// least p of the moves changed <= s modules. Sizes in the overflow bucket
// report as packHistBuckets-1. Returns 0 when no moves were recorded.
func (s *EvalStats) PackChangedPercentile(p float64) int {
	total := 0
	for _, c := range s.PackChangedHist {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := p * float64(total)
	cum := 0
	for sz, c := range s.PackChangedHist {
		cum += c
		if float64(cum) >= want {
			return sz
		}
	}
	return len(s.PackChangedHist) - 1
}

// DieMetrics bundles the per-die leakage measurements.
type DieMetrics struct {
	// R is the power-temperature correlation (Eq. 1, detailed analysis).
	R float64
	// S is the spatial entropy of the power map (Eq. 3).
	S float64
	// SVF is the side-channel vulnerability factor over the activity
	// samples (0 when post-processing is disabled).
	SVF float64
	// MeanStability is the mean absolute per-bin stability (Eq. 2).
	MeanStability float64
}

// Metrics mirrors one column pair of the paper's Table 2.
type Metrics struct {
	// PerDie holds the leakage metrics for every die, bottom (0) to top.
	PerDie []DieMetrics

	// Leakage metrics for the bottom and top die (Eq. 1 and Eq. 3),
	// verified with the detailed thermal analysis — aliases of
	// PerDie[0] and PerDie[len-1] kept for the two-die Table 2 shape.
	S1, S2 float64 // spatial entropies, bottom/top die
	R1, R2 float64 // correlation coefficients, bottom/top die

	// Design cost.
	PowerW         float64
	CriticalNS     float64
	WirelengthM    float64
	PeakTempK      float64
	SignalTSVs     int
	DummyTSVs      int
	VoltageVolumes int
	RuntimeSec     float64

	// PostCorrelationBefore/After record the dummy-TSV stage's effect on
	// the watched correlation (Fig. 4: 0.461 -> 0.324 on n100; with
	// ProtectModules set, the masked correlation over the protected bins).
	PostCorrelationBefore float64
	PostCorrelationAfter  float64

	// SVF1, SVF2 are the side-channel vulnerability factors per die
	// (Demme et al., the metric the paper grounds Eq. 1 in), measured over
	// the post-processing activity samples. Zero when post-processing is
	// disabled.
	SVF1, SVF2 float64
	// MeanStability1, MeanStability2 are the mean absolute per-bin
	// correlation stabilities (Eq. 2) per die over the same samples.
	MeanStability1, MeanStability2 float64
}

// Result is a completed floorplanning run.
type Result struct {
	Design     *netlist.Design
	Layout     *floorplan.Layout
	TSVs       *tsv.Plan
	Assignment *volt.Assignment
	Metrics    Metrics

	// PowerMaps and TempMaps are the final nominal per-die maps (detailed
	// analysis, voltage-scaled powers, all TSVs applied).
	PowerMaps []*geom.Grid
	TempMaps  []*geom.Grid

	// Stack is the solved detailed thermal model (reusable by attacks).
	Stack *thermal.Stack

	// EvalStats reports the annealing-loop evaluation effort, including how
	// much work the incremental caches avoided.
	EvalStats EvalStats
	// SolverStats reports the detailed verification solve of the finalize
	// stage (post-processing solves are not included).
	SolverStats thermal.Stats

	started time.Time
}
