package tscfp

import "fmt"

// RunOptions is the JSON-decodable knob set accepted by out-of-process
// callers (the tscfpd job API, config files). It mirrors the functional
// options of this package one field per knob; the zero value of every field
// selects the same default as omitting the corresponding option, so a
// decoded `{}` behaves exactly like NewFlow(design) with no options.
//
// Strings follow the CLI spellings: Mode accepts the ParseMode forms
// ("pa", "power-aware", "tsc", "tsc-aware") and PostCriterion accepts
// "bottom-die" or "all-dies". Marshaling is deterministic (fields in
// declaration order, omitempty throughout), which serving layers rely on
// when content-addressing a submission — normalize Mode via Canonical
// before hashing so "tsc" and "tsc-aware" address the same artifact.
type RunOptions struct {
	Mode              string   `json:"mode,omitempty"`
	Seed              int64    `json:"seed,omitempty"`
	Iterations        int      `json:"iterations,omitempty"`
	GridN             int      `json:"grid_n,omitempty"`
	ActivitySamples   int      `json:"activity_samples,omitempty"`
	ActivitySigma     float64  `json:"activity_sigma,omitempty"`
	PostProcess       *bool    `json:"post_process,omitempty"`
	PostCriterion     string   `json:"post_criterion,omitempty"`
	ProtectedModules  []int    `json:"protected_modules,omitempty"`
	MaxDummyGroups    int      `json:"max_dummy_groups,omitempty"`
	DummyViasPerGroup int      `json:"dummy_vias_per_group,omitempty"`
	VoltEvery         int      `json:"volt_every,omitempty"`
	VoltTargetFactor  float64  `json:"volt_target_factor,omitempty"`
	Weights           *Weights `json:"weights,omitempty"`
	Parallelism       *int     `json:"parallelism,omitempty"`
	// Replicas selects the parallel annealer (WithReplicas). 0 and 1 both
	// mean the serial path; Canonical normalizes 1 to 0 so the two
	// spellings content-address identically.
	Replicas int `json:"replicas,omitempty"`
}

// Canonical returns a normalized copy: mode and criterion spellings are
// expanded to their full forms ("tsc" becomes "tsc-aware"). Two RunOptions
// that configure the same flow canonicalize to identical JSON, making the
// result a safe content-address component.
func (o RunOptions) Canonical() (RunOptions, error) {
	if o.Mode != "" {
		m, err := ParseMode(o.Mode)
		if err != nil {
			return RunOptions{}, err
		}
		o.Mode = string(m)
	}
	switch PostCriterion(o.PostCriterion) {
	case "", BottomDie, AllDies:
	default:
		return RunOptions{}, fmt.Errorf("tscfp: unknown post criterion %q", o.PostCriterion)
	}
	// 1 and 0 both select the serial annealing path and must hash the same;
	// negatives would otherwise canonicalize silently and only fail later in
	// NewFlow, after a dedupe key was already derived from them.
	if o.Replicas < 0 {
		return RunOptions{}, fmt.Errorf("tscfp: negative replica count %d", o.Replicas)
	}
	if o.Replicas == 1 {
		o.Replicas = 0
	}
	return o, nil
}

// Options lowers the decoded knobs into functional options for NewFlow.
// Only knobs that differ from their zero value are emitted, so flow
// defaults stay owned by the options themselves. Spelling errors (unknown
// mode or criterion) surface here; range errors (negative budgets, bad
// weights) surface from NewFlow exactly as they would for a direct caller.
func (o RunOptions) Options() ([]Option, error) {
	c, err := o.Canonical()
	if err != nil {
		return nil, err
	}
	var opts []Option
	if c.Mode != "" {
		opts = append(opts, WithMode(Mode(c.Mode)))
	}
	if c.Seed != 0 {
		opts = append(opts, WithSeed(c.Seed))
	}
	if c.Iterations != 0 {
		opts = append(opts, WithIterations(c.Iterations))
	}
	if c.GridN != 0 {
		opts = append(opts, WithGridN(c.GridN))
	}
	if c.ActivitySamples != 0 {
		opts = append(opts, WithActivitySamples(c.ActivitySamples))
	}
	if c.ActivitySigma != 0 {
		opts = append(opts, WithActivitySigma(c.ActivitySigma))
	}
	if c.PostProcess != nil {
		opts = append(opts, WithPostProcess(*c.PostProcess))
	}
	if c.PostCriterion != "" {
		opts = append(opts, WithPostCriterion(PostCriterion(c.PostCriterion)))
	}
	if len(c.ProtectedModules) > 0 {
		opts = append(opts, WithProtectedModules(c.ProtectedModules...))
	}
	if c.MaxDummyGroups != 0 {
		opts = append(opts, WithMaxDummyGroups(c.MaxDummyGroups))
	}
	if c.DummyViasPerGroup != 0 {
		opts = append(opts, WithDummyViasPerGroup(c.DummyViasPerGroup))
	}
	if c.VoltEvery != 0 {
		opts = append(opts, WithVoltEvery(c.VoltEvery))
	}
	if c.VoltTargetFactor != 0 {
		opts = append(opts, WithVoltTargetFactor(c.VoltTargetFactor))
	}
	if c.Weights != nil {
		opts = append(opts, WithWeights(*c.Weights))
	}
	if c.Parallelism != nil {
		opts = append(opts, WithParallelism(*c.Parallelism))
	}
	if c.Replicas != 0 {
		opts = append(opts, WithReplicas(c.Replicas))
	}
	return opts, nil
}
