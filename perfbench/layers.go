package main

import (
	"math/rand"
	"time"

	"repro/internal/activity"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/thermal"
	"repro/internal/timing"
	"repro/internal/tsv"
	"repro/internal/volt"
	"repro/tscfp"
)

// layerBudget bounds the repeated calls into one layer entry point; each
// entry point is called at least layerMinCalls times.
const (
	layerBudget   = 300 * time.Millisecond
	layerMinCalls = 5
)

// timeCalls calls fn repeatedly (at least layerMinCalls times, then until
// layerBudget is spent), records the batch as one span, and returns the
// median seconds per call.
func timeCalls(tr *tracer, parent int, trace, name string, fn func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < layerMinCalls || time.Since(start) < layerBudget {
		t0 := time.Now()
		fn()
		per = append(per, time.Since(t0).Seconds())
	}
	tr.record(parent, trace, name, start, time.Now(), len(per))
	return median(per)
}

// timeLayers times each layer's public entry point on the run's own final
// state, taken from res.Core(): its layout, power maps, assignment and
// thermal stack. The one exception is the packer: the final packing
// sequence is internal to the annealer, so Pack is timed on the run's
// initial floorplan, which the flow draws first from its seed.
func timeLayers(tr *tracer, out *report, d *tscfp.Design, res *tscfp.Result, seed int64) {
	c := res.Core()
	l := c.Layout
	n := res.GridN
	trace := "layers-" + d.Name()
	root, end := tr.begin(0, trace, "layers")
	defer end()

	fp := floorplan.NewRandom(d.Netlist(), rand.New(rand.NewSource(seed)))
	out.set("floorplan.pack_us", "us", 1e6*timeCalls(tr, root, trace, "floorplan.Floorplan.Pack", func() { fp.Pack() }))

	params := timing.DefaultParams()
	var ref *timing.Analysis
	out.set("timing.analyze_us", "us", 1e6*timeCalls(tr, root, trace, "timing.Analyze", func() {
		ref = timing.Analyze(l, nil, params)
	}))
	vcfg := volt.Config{TargetFactor: 1.15, Mode: volt.TSCAware}
	out.set("volt.assign_us", "us", 1e6*timeCalls(tr, root, trace, "volt.Assign", func() {
		volt.Assign(l, ref, vcfg)
	}))

	die := 0
	out.set("leakage.spatial_entropy_us", "us", 1e6*timeCalls(tr, root, trace, "leakage.SpatialEntropy", func() {
		leakage.SpatialEntropy(c.PowerMaps[die], leakage.EntropyOptions{})
		die = (die + 1) % len(c.PowerMaps)
	}))

	tcfg := thermal.DefaultConfig(n, n, l.OutlineW, l.OutlineH, l.Dies)
	t0 := time.Now()
	fast := thermal.CalibrateFast(tcfg)
	tr.record(root, trace, "thermal.CalibrateFast", t0, time.Now(), 1)
	out.set("thermal.fast_estimate_us", "us", 1e6*timeCalls(tr, root, trace, "thermal.FastEstimator.Estimate", func() {
		fast.Estimate(c.PowerMaps)
	}))

	// The warm-started steady solve, as the sampling stage runs it: a cold
	// solve of the nominal maps, then one solve per Gaussian activity
	// sample, each starting from the previous solution.
	stack := c.Stack
	powers := l.NominalPowers()
	for m := range powers {
		powers[m] *= c.Assignment.PowerScale[m]
	}
	opts := thermal.SolverOpts{Tol: 1e-4}
	warm, _ := stack.SolveSteady(nil, opts)
	sampler := activity.NewSamplerFromPowers(powers, 0.10)
	rng := rand.New(rand.NewSource(seed))
	samples := make([][]*geom.Grid, 16)
	for k := range samples {
		p := sampler.Sample(rng)
		samples[k] = make([]*geom.Grid, l.Dies)
		for die := range samples[k] {
			samples[k][die] = l.PowerMap(die, n, n, p)
		}
	}
	var sweeps []float64
	k := 0
	out.set("thermal.solve_steady_ms", "ms", 1e3*timeCalls(tr, root, trace, "thermal.Stack.SolveSteady", func() {
		for die, g := range samples[k%len(samples)] {
			stack.SetDiePower(die, g)
		}
		k++
		sol, st := stack.SolveSteady(warm, opts)
		warm = sol
		sweeps = append(sweeps, float64(st.Sweeps))
	}))
	out.set("thermal.solver_sweeps", "count", median(sweeps))
	for die := 0; die < l.Dies; die++ {
		stack.SetDiePower(die, c.PowerMaps[die])
	}

	out.set("tsv.plan_signals_us", "us", 1e6*timeCalls(tr, root, trace, "tsv.PlanSignals", func() {
		tsv.PlanSignals(l, tsv.Options{})
	}))
}
