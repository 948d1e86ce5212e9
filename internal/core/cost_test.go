package core

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/thermal"
	"repro/internal/timing"
)

func TestCostPositiveAndFinite(t *testing.T) {
	for _, mode := range []Mode{PowerAware, TSCAware} {
		ev := makeEval(t, mode, false, 1)
		c := ev.Cost()
		if c <= 0 || c != c /* NaN */ {
			t.Fatalf("%v: cost %v", mode, c)
		}
	}
}

func TestCostStableForUnchangedState(t *testing.T) {
	ev := makeEval(t, TSCAware, false, 2)
	// Prime normalization and the voltage-assignment cache stride so both
	// evaluations hit the same cache phase.
	stride := ev.cfg.VoltEvery
	var c1, c2 float64
	for i := 0; i < stride; i++ {
		c1 = ev.Cost()
	}
	for i := 0; i < stride; i++ {
		c2 = ev.Cost()
	}
	if c1 != c2 {
		t.Fatalf("cost drifted without a move: %v vs %v", c1, c2)
	}
}

func TestCostRespondsToPerturbation(t *testing.T) {
	ev := makeEval(t, PowerAware, false, 3)
	base := ev.Cost()
	rng := rand.New(rand.NewSource(4))
	changed := false
	for i := 0; i < 20; i++ {
		undo := ev.Perturb(rng)
		if c := ev.Cost(); c != base {
			changed = true
		}
		undo()
	}
	if !changed {
		t.Fatal("20 random moves never changed the cost")
	}
}

func TestTSCModeIncludesLeakageTerms(t *testing.T) {
	// Same floorplan, same seed: the TSC cost must include extra terms, so
	// the two modes' raw term structs agree on shared terms but TSC fills
	// corr/entropy.
	evPA := makeEval(t, PowerAware, false, 5)
	evTSC := makeEval(t, TSCAware, false, 5)
	lPA := evPA.fp.Pack()
	lTSC := evTSC.fp.Pack()
	tPA := evPA.terms(lPA)
	tTSC := evTSC.terms(lTSC)
	if tPA.corr != 0 || tPA.entropy != 0 {
		t.Fatal("PA mode must not compute leakage terms")
	}
	if tTSC.corr <= 0 || tTSC.entropy <= 0 {
		t.Fatalf("TSC mode must compute leakage terms: corr=%v entropy=%v", tTSC.corr, tTSC.entropy)
	}
	// Identical seeds -> identical floorplans -> identical shared terms.
	if tPA.wl != tTSC.wl || tPA.viol != tTSC.viol {
		t.Fatal("shared terms should agree for identical floorplans")
	}
}

func TestDesignRuleTermRange(t *testing.T) {
	ev := makeEval(t, PowerAware, false, 6)
	l := ev.fp.Pack()
	terms := ev.terms(l)
	if terms.rule < 0 || terms.rule > 1 {
		t.Fatalf("design-rule term %v out of [0,1]", terms.rule)
	}
}

func TestDesignRuleTermTracksDieAssignment(t *testing.T) {
	// Round-robin die assignment puts roughly half the power on the lower
	// die, so the design-rule term (power-weighted distance from the top
	// die) sits near 0.5.
	des := bench.MustGenerate("n100")
	cfg := Config{Mode: PowerAware, GridN: 16}
	cfg.defaults()
	fast := thermal.CalibrateFast(thermal.DefaultConfig(16, 16, des.OutlineW, des.OutlineH, des.Dies))
	ev := &evaluator{fp: floorplan.New(des), cfg: &cfg, fast: fast}
	terms := ev.terms(ev.fp.Pack())
	if terms.rule < 0.2 || terms.rule > 0.8 {
		t.Fatalf("round-robin design-rule term %v should sit near 0.5", terms.rule)
	}
}

func TestVoltCacheRefreshes(t *testing.T) {
	ev := makeEval(t, PowerAware, false, 8)
	l := ev.fp.Pack()
	ev.terms(l) // eval 0: assignment runs
	if ev.powerScale == nil {
		t.Fatal("voltage scales not cached")
	}
	evals := ev.evals
	ev.terms(l) // eval 1: cache hit
	if ev.evals != evals+1 {
		t.Fatal("eval counter")
	}
}

func TestScaledPowers(t *testing.T) {
	des := bench.MustGenerate("n100")
	l := floorplan.New(des).Pack()
	scale := make([]float64, len(des.Modules))
	for i := range scale {
		scale[i] = 0.5
	}
	p := scaledPowers(l, scale)
	for i, m := range des.Modules {
		if p[i] != 0.5*m.Power {
			t.Fatal("scaling wrong")
		}
	}
	p2 := scaledPowers(l, nil)
	for i, m := range des.Modules {
		if p2[i] != m.Power {
			t.Fatal("nil scale must be nominal")
		}
	}
	_ = timing.DefaultParams() // keep import for the helper's signature stability
}
