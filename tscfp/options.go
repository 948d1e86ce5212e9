package tscfp

import (
	"fmt"

	"repro/internal/core"
)

// Mode selects the experimental setup (Sec. 7 of the paper).
type Mode string

const (
	// PowerAware is the competitive baseline: packing, wirelength, delay,
	// peak temperature, and voltage assignment optimized together.
	PowerAware Mode = "power-aware"
	// TSCAware additionally minimizes the power/thermal correlation (Eq. 1)
	// and the spatial entropy of the power maps (Eq. 3), uses the
	// TSC-oriented voltage-assignment objective, and runs the dummy-TSV
	// post-processing of Sec. 6.2.
	TSCAware Mode = "tsc-aware"
)

func (m Mode) core() (core.Mode, error) {
	switch m {
	case PowerAware:
		return core.PowerAware, nil
	case TSCAware:
		return core.TSCAware, nil
	default:
		return 0, fmt.Errorf("tscfp: unknown mode %q", string(m))
	}
}

// ParseMode accepts the common spellings ("pa", "power-aware", "tsc",
// "tsc-aware") used by the CLI flags. The empty string is an error, not a
// default — an unset variable should not silently pick a setup.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "pa", "power-aware":
		return PowerAware, nil
	case "tsc", "tsc-aware":
		return TSCAware, nil
	default:
		return "", fmt.Errorf("tscfp: unknown mode %q (want pa or tsc)", s)
	}
}

// PostCriterion selects the correlation watched by the dummy-TSV stop rule.
type PostCriterion string

const (
	// BottomDie accepts insertions while |r_1| drops (default; the bottom
	// die is the protectable one).
	BottomDie PostCriterion = "bottom-die"
	// AllDies accepts insertions while the mean |r_d| over dies drops.
	AllDies PostCriterion = "all-dies"
)

// Weights are the multi-objective cost weights; see core's documentation for
// the paper grounding. The zero value selects the mode's defaults.
type Weights struct {
	OutlineViolation float64 `json:"outline_violation"`
	Wirelength       float64 `json:"wirelength"`
	CriticalDelay    float64 `json:"critical_delay"`
	PeakTemp         float64 `json:"peak_temp"`
	Power            float64 `json:"power"`
	VoltageVolumes   float64 `json:"voltage_volumes"`
	Correlation      float64 `json:"correlation"`
	SpatialEntropy   float64 `json:"spatial_entropy"`
	DesignRule       float64 `json:"design_rule"`
}

// Stage identifies one phase of the flow in progress events.
type Stage string

const (
	// StageAnneal is the simulated-annealing floorplanning search.
	StageAnneal Stage = Stage(core.StageAnneal)
	// StageFinalize covers TSV planning, voltage assignment, and detailed
	// thermal verification.
	StageFinalize Stage = Stage(core.StageFinalize)
	// StageSampling is the activity-sampling loop of post-processing.
	StageSampling Stage = Stage(core.StageSampling)
	// StagePostProcess is the iterative dummy-TSV insertion (Sec. 6.2).
	StagePostProcess Stage = Stage(core.StagePostProcess)
	// StageDone fires once, after metrics are final.
	StageDone Stage = Stage(core.StageDone)
)

// Event is one progress update from a running flow. Done/Total count
// stage-local units (annealing moves, activity samples, dummy groups); Total
// is 0 when the stage has no meaningful denominator. Cost carries the best
// annealing cost during StageAnneal and the watched correlation during
// StagePostProcess.
//
// Event marshals to stable JSON, so serving layers (tscfpd's SSE stream)
// forward flow progress verbatim instead of mirroring it into an ad-hoc
// wire struct.
type Event struct {
	Stage Stage   `json:"stage"`
	Done  int     `json:"done"`
	Total int     `json:"total"`
	Cost  float64 `json:"cost"`
}

// settings accumulates option values before a Flow is built.
type settings struct {
	mode        Mode
	cfg         core.Config
	postProcess *bool
	weights     *Weights
	progress    func(Event)
	parSet      bool // WithParallelism was given explicitly
	churnStats  bool // WithChurnStats: surface pack_* churn counters
	err         error
}

// Option configures a Flow (and, through Grid.Options, every Sweep cell).
type Option func(*settings)

func (s *settings) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("tscfp: "+format, args...)
	}
}

// WithMode selects power-aware or TSC-aware floorplanning. Default TSCAware.
func WithMode(m Mode) Option {
	return func(s *settings) {
		if _, err := m.core(); err != nil {
			s.fail("%v", err)
			return
		}
		s.mode = m
	}
}

// WithSeed sets the seed driving every stochastic stage of the flow.
//
// Determinism contract: the flow never touches math/rand's global source —
// all randomness flows from rand.New(rand.NewSource(seed)) created per run.
// The same Design, seed, and options therefore produce an identical Result
// (byte-identical JSON, runtime aside) on every run, independent of other
// goroutines, of previous runs, and of Sweep worker scheduling.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.cfg.Seed = seed }
}

// WithIterations sets the simulated-annealing budget. Zero selects the
// default of 3000 (it does not disable annealing).
func WithIterations(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.fail("negative iteration budget %d", n)
			return
		}
		s.cfg.SAIterations = n
	}
}

// WithGridN sets the lateral resolution of the thermal and leakage grids.
// Zero selects the default of 32.
func WithGridN(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.fail("negative grid resolution %d", n)
			return
		}
		s.cfg.GridN = n
	}
}

// WithActivitySamples sets m of Eq. 2 (the paper uses 100). Zero selects
// the default of 100 (it does not skip the sampling stage; use
// WithPostProcess(false) for that).
func WithActivitySamples(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.fail("negative activity sample count %d", n)
			return
		}
		s.cfg.ActivitySamples = n
	}
}

// WithActivitySigma sets the relative power sigma of the activity model
// (the paper uses 0.10).
func WithActivitySigma(sigma float64) Option {
	return func(s *settings) { s.cfg.ActivitySigma = sigma }
}

// WithPostProcess forces the dummy-TSV insertion stage on or off,
// replacing the default of on-in-TSC-mode, off-in-power-aware-mode.
func WithPostProcess(enabled bool) Option {
	return func(s *settings) {
		v := enabled
		s.postProcess = &v
	}
}

// WithPostCriterion selects the correlation watched by the dummy-TSV stop
// rule. Default BottomDie.
func WithPostCriterion(c PostCriterion) Option {
	return func(s *settings) {
		switch c {
		case BottomDie:
			s.cfg.PostCriterion = core.BottomDie
		case AllDies:
			s.cfg.PostCriterion = core.AllDies
		default:
			s.fail("unknown post criterion %q", string(c))
		}
	}
}

// WithProtectedModules switches post-processing to the Sec. 7.1 adaptation:
// dummy TSVs target only the bins covered by these (security-critical)
// modules. Indices refer to Design.Modules.
func WithProtectedModules(modules ...int) Option {
	return func(s *settings) {
		s.cfg.ProtectModules = append([]int(nil), modules...)
	}
}

// WithMaxDummyGroups bounds post-processing insertions. Zero selects the
// default of 64; to disable insertions entirely use WithPostProcess(false).
func WithMaxDummyGroups(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.fail("negative dummy group bound %d", n)
			return
		}
		s.cfg.MaxDummyGroups = n
	}
}

// WithDummyViasPerGroup sets the island size of each inserted dummy group.
// Zero selects the default of 8.
func WithDummyViasPerGroup(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.fail("negative dummy via count %d", n)
			return
		}
		s.cfg.DummyViasPerGroup = n
	}
}

// WithVoltEvery re-runs voltage assignment every k-th accepted evaluation.
// Zero selects the default of 10.
func WithVoltEvery(k int) Option {
	return func(s *settings) {
		if k < 0 {
			s.fail("negative voltage-assignment stride %d", k)
			return
		}
		s.cfg.VoltEvery = k
	}
}

// WithVoltTargetFactor relaxes the timing target for voltage assignment.
// Default 1.15.
func WithVoltTargetFactor(f float64) Option {
	return func(s *settings) { s.cfg.VoltTargetFactor = f }
}

// WithWeights overrides the multi-objective cost weights. The zero value of
// any field is taken literally (a zero weight disables that term), so start
// from DefaultWeights when adjusting a single knob.
func WithWeights(w Weights) Option {
	return func(s *settings) {
		wc := w
		s.weights = &wc
	}
}

// DefaultWeights returns the mode's default cost weights. It also accepts
// the ParseMode spellings ("pa", "tsc") and panics on an unknown mode — a
// silent fallback here would hand a caller the wrong tuning baseline.
func DefaultWeights(m Mode) Weights {
	cm, err := m.core()
	if err != nil {
		parsed, perr := ParseMode(string(m))
		if perr != nil {
			panic(err)
		}
		cm, _ = parsed.core()
	}
	w := core.DefaultWeights(cm)
	return Weights{
		OutlineViolation: w.OutlineViolation,
		Wirelength:       w.Wirelength,
		CriticalDelay:    w.CriticalDelay,
		PeakTemp:         w.PeakTemp,
		Power:            w.Power,
		VoltageVolumes:   w.VoltageVolumes,
		Correlation:      w.Correlation,
		SpatialEntropy:   w.SpatialEntropy,
		DesignRule:       w.DesignRule,
	}
}

// WithProgress installs a per-stage progress callback. The callback runs
// synchronously on the flow goroutine (each Sweep worker has its own), so it
// must be cheap and, under Sweep, safe for concurrent invocation.
func WithProgress(fn func(Event)) Option {
	return func(s *settings) { s.progress = fn }
}

// WithParallelism bounds the worker goroutines fanned out by the detailed
// thermal solver's red-black SOR sweeps and the fast estimator's separable
// convolutions. 0 (the default) selects GOMAXPROCS; 1 forces the serial
// path. Results are byte-identical for every setting — parallelism never
// perturbs determinism (see WithSeed).
//
// Under Sweep/Stream the unset default is 1, not GOMAXPROCS: the worker
// pool already saturates the CPU with whole cells, and nesting per-run
// fan-out under pool-level fan-out would oversubscribe it. An explicit
// WithParallelism wins over that adjustment.
func WithParallelism(n int) Option {
	return func(s *settings) {
		if n < 0 {
			s.fail("negative parallelism %d", n)
			return
		}
		s.cfg.Parallelism = n
		s.parSet = true
	}
}

// WithReplicas runs k tempered annealing chains (replica exchange / parallel
// tempering): each replica anneals on its own RNG stream at its rung of a
// geometric temperature ladder, neighbours periodically swap temperatures by
// the Metropolis criterion, and the best replica's floorplan feeds the rest
// of the flow. 0 and 1 (the default) select the single-chain serial path,
// which stays bit-identical to earlier releases at a fixed seed.
//
// k >= 2 is its own deterministic contract: a fixed (seed, replicas) pair
// yields a byte-identical Result for any GOMAXPROCS, but the walk differs
// from the serial one — replicas trade reproducibility of the historical
// stream for quality per wall-clock second. Under replicas
// the per-run thermal Parallelism defaults to 1 (the chains are the
// parallelism); an explicit WithParallelism wins.
func WithReplicas(k int) Option {
	return func(s *settings) {
		if k < 0 {
			s.fail("negative replica count %d", k)
			return
		}
		s.cfg.Replicas = k
	}
}

// WithCostCrossCheck re-evaluates every annealing move through the full
// recompute path and panics if the incremental cost drifts beyond 1e-9
// (relative). It additionally pins every incremental voltage refresh
// against a from-scratch assignment (identical volumes, total power within
// 1e-9) and every patched per-die entropy against a from-scratch recompute
// (1e-9 relative). Debug aid: it forfeits the entire incremental speedup.
func WithCostCrossCheck(enabled bool) Option {
	return func(s *settings) { s.cfg.CostCrossCheck = enabled }
}

// WithChurnStats surfaces the exact-diff repack churn counters in
// Result.Stats: the pack_* fields (moves through the diff packer, per-die
// diffs, early exits, replayed positions, changed-module totals and p50/p95
// per move). The counters are always collected; this knob only controls
// whether they appear on the wire, so the default JSON encoding stays
// byte-identical to earlier releases. Default off.
func WithChurnStats(enabled bool) Option {
	return func(s *settings) { s.churnStats = enabled }
}
