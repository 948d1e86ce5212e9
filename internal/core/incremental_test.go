package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/thermal"
	"repro/internal/timing"
)

// makeEval builds an evaluator over n100 at a small grid: the incremental
// one, or the full-recompute reference.
func makeEval(t *testing.T, mode Mode, incremental bool, seed int64) *evaluator {
	t.Helper()
	return buildEval(bench.MustGenerate("n100"), mode, incremental, seed)
}

// buildEval builds an evaluator over des at a 16x16 grid.
func buildEval(des *netlist.Design, mode Mode, incremental bool, seed int64) *evaluator {
	cfg := Config{Mode: mode, GridN: 16, Seed: seed, FullRecompute: !incremental}
	cfg.defaults()
	fast := thermal.CalibrateFast(thermal.DefaultConfig(16, 16, des.OutlineW, des.OutlineH, des.Dies))
	rng := rand.New(rand.NewSource(seed))
	return newEvaluator(floorplan.NewRandom(des, rng), &cfg, fast)
}

// journaledRun drives ev through the first Cost and then n perturb/cost
// cycles, undoing each move with probability 1/2, and calls after (if
// non-nil) following every Cost.
func journaledRun(ev *evaluator, n int, moveSeed, undoSeed int64, after func()) {
	rng := rand.New(rand.NewSource(moveSeed))
	dec := rand.New(rand.NewSource(undoSeed))
	ev.Cost()
	for i := 0; i < n; i++ {
		undo := ev.Perturb(rng)
		ev.Cost()
		if after != nil {
			after()
		}
		if dec.Float64() < 0.5 {
			undo()
		}
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(b))
}

// TestIncrementalMatchesFullOverRandomCycles is the epsilon contract: a full
// and an incremental evaluator driven through the same 1k perturb/undo
// cycles must agree on every cost to 1e-9 (relative). Undos are interleaved
// so the journal rollback path is exercised as hard as the apply path.
func TestIncrementalMatchesFullOverRandomCycles(t *testing.T) {
	for _, mode := range []Mode{PowerAware, TSCAware} {
		cycles := 1000
		if mode == PowerAware {
			cycles = 300 // the PA path is a strict subset; keep the suite fast
		}
		full := makeEval(t, mode, false, 11)
		inc := makeEval(t, mode, true, 11)
		mrFull := rand.New(rand.NewSource(99))
		mrInc := rand.New(rand.NewSource(99))
		dec := rand.New(rand.NewSource(7))

		if d := relDiff(inc.Cost(), full.Cost()); d > 1e-9 {
			t.Fatalf("%v: initial cost differs by %g", mode, d)
		}
		for i := 0; i < cycles; i++ {
			undoFull := full.Perturb(mrFull)
			undoInc := inc.Perturb(mrInc)
			cf, ci := full.Cost(), inc.Cost()
			if d := relDiff(ci, cf); d > 1e-9 {
				t.Fatalf("%v cycle %d: incremental %v vs full %v (rel diff %g)", mode, i, ci, cf, d)
			}
			if dec.Float64() < 0.5 {
				undoFull()
				undoInc()
			}
		}
		// Post-undo state must also agree (journal rollback correctness).
		if d := relDiff(inc.Cost(), full.Cost()); d > 1e-9 {
			t.Fatalf("%v: post-cycle cost differs by %g", mode, d)
		}
		st := inc.stats
		if st.IncrementalEvals == 0 || st.NetsReused == 0 || st.DiesReused+st.ResponsesReused == 0 {
			t.Fatalf("incremental caches never engaged: %+v", st)
		}
	}
}

// TestIncrementalSteadyStateAllocs pins the annealing move loop's
// allocations. After a warm-up that fills the journal, pack-diff, snapshot
// row, grid and response pools, an n100 evaluator runs alternating accepted
// and undone perturb/Cost cycles, in both modes. Measured at 11 (PA) and 13
// (TSC) allocations per cycle. What remains:
//
//   - the move protocol, ~4.4 per cycle: the floorplan.Move held as the
//     pending move, its Dies/Starts slices (two for a single-die move, up
//     to four for a cross-die one), the operator's undo closure from
//     PerturbMove, and the undo closure handed back to the annealer;
//   - the voltage refresh, ~6-8 per cycle amortized: every VoltEvery (10)
//     evaluations it builds a fresh volt.Assignment (per-module level and
//     scale slices, one member list per volume), which the evaluator keeps
//     as its scales, plus the adjacency sweep's sort closures.
//
// Everything else (journals, repacks, skyline scans, power maps, blur
// responses, entropy patches, STA passes) runs on recycled storage.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	const maxAllocsPerCycle = 16 // the measured 13, plus headroom for toolchain escape-analysis drift
	for _, mode := range []Mode{PowerAware, TSCAware} {
		ev := makeEval(t, mode, true, 61)
		journaledRun(ev, 1000, 62, 63, nil)
		rng := rand.New(rand.NewSource(64))
		accept := false
		allocs := testing.AllocsPerRun(500, func() {
			undo := ev.Perturb(rng)
			ev.Cost()
			if !accept {
				undo()
			}
			accept = !accept
		})
		t.Logf("%v: %v allocations per perturb/Cost/accept-or-undo cycle", mode, allocs)
		if allocs > maxAllocsPerCycle {
			t.Errorf("%v: %v allocations per cycle, want <= %d", mode, allocs, maxAllocsPerCycle)
		}
	}
}

// TestCostCrossCheckFlag exercises the built-in debug cross-check: it panics
// on divergence, so surviving a few hundred mixed cycles (and recording a
// sub-epsilon max error) is the assertion.
func TestCostCrossCheckFlag(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 21)
	ev.check = true
	rng := rand.New(rand.NewSource(5))
	dec := rand.New(rand.NewSource(6))
	ev.Cost()
	for i := 0; i < 200; i++ {
		undo := ev.Perturb(rng)
		ev.Cost()
		if dec.Float64() < 0.4 {
			undo()
		}
	}
	if ev.stats.CrossChecks < 200 {
		t.Fatalf("cross-checks did not run: %+v", ev.stats)
	}
	if ev.stats.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cross-check error too large: %g", ev.stats.MaxCrossCheckError)
	}
}

// TestUndoBeforeCostIsSafe covers the protocol corner where a move is undone
// without an intervening Cost call: the caches must not go stale.
func TestUndoBeforeCostIsSafe(t *testing.T) {
	ev := makeEval(t, PowerAware, true, 31)
	ref := makeEval(t, PowerAware, false, 31)
	rng := rand.New(rand.NewSource(8))
	rngRef := rand.New(rand.NewSource(8))
	ev.Cost()
	ref.Cost()
	for i := 0; i < 20; i++ {
		ev.Perturb(rng)()     // apply + immediately undo, no Cost between
		ref.Perturb(rngRef)() // keep the reference rng in lockstep
		if d := relDiff(ev.Cost(), ref.Cost()); d > 1e-9 {
			t.Fatalf("cycle %d: cost drifted by %g after cost-less undo", i, d)
		}
	}
}

// TestPerturbWhilePendingPanics pins the anneal.Problem call order: a second
// Perturb before the first move's Cost or undo is a protocol error.
func TestPerturbWhilePendingPanics(t *testing.T) {
	ev := makeEval(t, PowerAware, true, 31)
	rng := rand.New(rand.NewSource(8))
	ev.Cost()
	ev.Perturb(rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Perturb with a move still pending did not panic")
		}
	}()
	ev.Perturb(rng)
}

// TestFlowIncrementalMatchesFull is the end-to-end determinism criterion:
// for a fixed seed, the flow must produce the identical best floorplan and
// metrics with the incremental evaluator (cached voltage engine and entropy
// caches included) and with the full-recompute reference.
func TestFlowIncrementalMatchesFull(t *testing.T) {
	post := false
	fast, full := runIncrementalAndFull(t, bench.MustGenerate("n100"), Config{
		Mode:         TSCAware,
		GridN:        16,
		SAIterations: 400,
		Seed:         3,
		PostProcess:  &post,
	})
	st := fast.EvalStats
	if st.IncrementalEvals == 0 || st.VoltIncrementalRefreshes == 0 || st.VoltCandidatesReused == 0 || st.EntropyPatched == 0 {
		t.Fatalf("incremental run never used the caches: %+v", st)
	}
	fst := full.EvalStats
	if fst.IncrementalEvals != 0 || fst.VoltIncrementalRefreshes != 0 || fst.EntropyPatched != 0 {
		t.Fatalf("full run unexpectedly used caches: %+v", fst)
	}
	if !fast.SolverStats.Converged || fast.SolverStats.Sweeps == 0 {
		t.Fatalf("solver stats not recorded: %+v", fast.SolverStats)
	}
}

// runIncrementalAndFull runs the flow on des under cfg twice — once with
// the incremental evaluator, once with the full-recompute reference — and
// fails the test unless both legs produce the identical best floorplan and
// metrics. It returns the incremental and the reference result.
func runIncrementalAndFull(t *testing.T, des *netlist.Design, cfg Config) (fast, full *Result) {
	t.Helper()
	run := func(incremental bool) *Result {
		c := cfg
		c.FullRecompute = !incremental
		res, err := Run(des, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, full = run(true), run(false)
	if len(fast.Layout.Rects) != len(full.Layout.Rects) {
		t.Fatal("layouts differ in size")
	}
	for m := range fast.Layout.Rects {
		if fast.Layout.Rects[m] != full.Layout.Rects[m] || fast.Layout.DieOf[m] != full.Layout.DieOf[m] {
			t.Fatalf("module %d placed differently: %+v/die%d vs %+v/die%d", m,
				fast.Layout.Rects[m], fast.Layout.DieOf[m], full.Layout.Rects[m], full.Layout.DieOf[m])
		}
	}
	fm, rm := fast.Metrics, full.Metrics
	fm.RuntimeSec, rm.RuntimeSec = 0, 0
	if !reflect.DeepEqual(fm, rm) {
		t.Fatalf("metrics differ:\n incremental %+v\n full        %+v", fm, rm)
	}
	return fast, full
}

// TestFlowIncrementalVoltageMatchesFullVoltage is the flow-level
// determinism criterion for the cached voltage engine under its heaviest
// load: with a voltage refresh on every accepted evaluation, the
// incremental flow must produce the identical best floorplan, metrics and
// final voltage assignment as the full-recompute reference for a fixed
// seed.
func TestFlowIncrementalVoltageMatchesFullVoltage(t *testing.T) {
	post := false
	fast, full := runIncrementalAndFull(t, bench.MustGenerate("n100"), Config{
		Mode:         TSCAware,
		GridN:        16,
		SAIterations: 300,
		VoltEvery:    1,
		Seed:         5,
		PostProcess:  &post,
	})
	if !reflect.DeepEqual(fast.Assignment, full.Assignment) {
		t.Fatalf("voltage assignments differ:\n incremental %+v\n full        %+v", fast.Assignment, full.Assignment)
	}
	st := fast.EvalStats
	if st.VoltIncrementalRefreshes == 0 || st.VoltIncrementalRefreshes != st.VoltRefreshes || st.VoltCandidatesReused == 0 {
		t.Fatalf("voltage refreshes not served by the cached engine: %+v", st)
	}
	if full.EvalStats.VoltIncrementalRefreshes != 0 {
		t.Fatalf("reference leg used the cached voltage engine: %+v", full.EvalStats)
	}
}

// TestFlowIncrementalEntropyAdjacencyMatchesFull is the flow-level
// determinism criterion for the entropy caches and the voltage engine's
// cached adjacency sweep on a three-die stack: the
// incremental flow must produce the identical best floorplan, metrics and
// final per-die power and temperature maps as the full-recompute reference
// for a fixed seed.
func TestFlowIncrementalEntropyAdjacencyMatchesFull(t *testing.T) {
	des := bench.MustGenerate("n100")
	des.Dies = 3
	post := false
	fast, full := runIncrementalAndFull(t, des, Config{
		Mode:         TSCAware,
		GridN:        16,
		SAIterations: 300,
		Seed:         3,
		PostProcess:  &post,
	})
	if len(fast.Metrics.PerDie) != 3 {
		t.Fatalf("per-die metrics %d, want 3", len(fast.Metrics.PerDie))
	}
	for d := range fast.PowerMaps {
		if !reflect.DeepEqual(fast.PowerMaps[d], full.PowerMaps[d]) || !reflect.DeepEqual(fast.TempMaps[d], full.TempMaps[d]) {
			t.Fatalf("die %d: final maps differ between the incremental and the reference leg", d)
		}
	}
	if fast.EvalStats.EntropyPatched == 0 || fast.EvalStats.VoltIncrementalRefreshes == 0 {
		t.Fatalf("entropy or voltage caches never engaged in the incremental leg: %+v", fast.EvalStats)
	}
	if full.EvalStats.EntropyPatched != 0 || full.EvalStats.VoltIncrementalRefreshes != 0 {
		t.Fatalf("reference leg used the incremental caches: %+v", full.EvalStats)
	}
}

// TestIncrementalVoltageCrossCheckOverJournaledRun is the acceptance
// contract for the incremental voltage refresh: a journaled 1k-move
// perturb/cost/undo run with the cross-check enabled must see every stride
// refresh produce identical volumes and TotalPower within 1e-9 of a
// from-scratch volt.Assign (crossCheckVolt panics otherwise), and the
// incremental cost must stay within the 1e-9 epsilon contract throughout.
// Interleaved undos exercise the volt dirty-set journal rollback — both the
// unmark path (no refresh saw the move) and the re-derive path (the
// assigner refreshed on rejected geometry).
func TestIncrementalVoltageCrossCheckOverJournaledRun(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 41)
	ev.check = true
	journaledRun(ev, 1000, 9, 10, nil)
	st := ev.stats
	if st.VoltCrossChecks == 0 {
		t.Fatalf("voltage cross-checks never ran: %+v", st)
	}
	if st.VoltIncrementalRefreshes == 0 || st.VoltIncrementalRefreshes != st.VoltRefreshes {
		t.Fatalf("refreshes not served incrementally: %+v", st)
	}
	if st.VoltCandidatesReused == 0 {
		t.Fatalf("no candidate tree was ever reused: %+v", st)
	}
	if st.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cost cross-check error too large: %g", st.MaxCrossCheckError)
	}
}

// TestIncrementalEntropyCrossCheckOverJournaledRun is the acceptance
// contract for the entropy caches: a journaled 1k-move perturb/cost/undo
// run with the cross-check enabled must see every patched per-die entropy
// within 1e-9 of a from-scratch SpatialEntropy (the evaluator panics
// otherwise), while the incremental cost stays within its own 1e-9
// contract. Interleaved undos exercise the caches re-converging against
// restored map bytes, including after refreshes during rejected moves.
func TestIncrementalEntropyCrossCheckOverJournaledRun(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 51)
	ev.check = true
	journaledRun(ev, 1000, 13, 14, nil)
	st := ev.stats
	if st.EntropyCrossChecks == 0 {
		t.Fatalf("entropy cross-checks never ran: %+v", st)
	}
	if st.EntropyPatched == 0 {
		t.Fatalf("entropy cache never served a patch: %+v", st)
	}
	if st.MaxCrossCheckError > 1e-9 {
		t.Fatalf("cost cross-check error too large: %g", st.MaxCrossCheckError)
	}
}

// TestIncrementalSTACrossCheckOverJournaledRun pins the incremental
// evaluator's timing: after every evaluation of a journaled 1k-move
// perturb/cost/undo run, the delay-scaled STA pass it ran over its cached
// net delays must match timing.Analyze on a from-scratch pack under the
// same scales — Critical, Arrive, Depart and ModuleDelay within 1e-9 — so a
// stale net delay left behind by a rollback cannot hide behind the summed
// cost term.
func TestIncrementalSTACrossCheckOverJournaledRun(t *testing.T) {
	ev := makeEval(t, TSCAware, true, 51)
	checks := 0
	journaledRun(ev, 1000, 12, 13, func() {
		checks++
		got := ev.incr.staScaled
		want := timing.Analyze(ev.fp.Pack(), ev.delayScale, *ev.cfg.TimingParams)
		if d := relDiff(got.Critical, want.Critical); d > 1e-9 {
			t.Fatalf("eval %d: critical %v vs full %v", checks, got.Critical, want.Critical)
		}
		for m := range want.Arrive {
			if relDiff(got.Arrive[m], want.Arrive[m]) > 1e-9 || relDiff(got.Depart[m], want.Depart[m]) > 1e-9 ||
				relDiff(got.ModuleDelay[m], want.ModuleDelay[m]) > 1e-9 {
				t.Fatalf("eval %d: module %d arrive/depart/delay %v/%v/%v vs full %v/%v/%v", checks, m,
					got.Arrive[m], got.Depart[m], got.ModuleDelay[m], want.Arrive[m], want.Depart[m], want.ModuleDelay[m])
			}
		}
	})
	if ev.stats.IncrementalEvals < 1000 {
		t.Fatalf("evaluations not served incrementally: %+v", ev.stats)
	}
}

// TestIncrementalVoltageUnderParallelism runs the refresh alongside the
// parallel thermal workers; under `go test -race` (the CI job) it asserts
// the voltage caches never share state with the estimator's fan-out.
func TestIncrementalVoltageUnderParallelism(t *testing.T) {
	des := bench.MustGenerate("n100")
	post := false
	res, err := Run(des, Config{
		Mode:         TSCAware,
		GridN:        16,
		SAIterations: 200,
		Seed:         7,
		PostProcess:  &post,
		Parallelism:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EvalStats.VoltIncrementalRefreshes == 0 {
		t.Fatalf("incremental voltage inactive: %+v", res.EvalStats)
	}
}

// degenerateNetDesign is a hand-built stack whose netlist contains the
// degenerate shapes Design.Validate rejects — a single-pin net and an empty
// net — alongside real nets and a terminal net. The evaluators must agree
// on it anyway: degenerate nets carry zero WL and zero delay in both paths.
func degenerateNetDesign() *netlist.Design {
	mod := func(name string, w, h, p, d float64) *netlist.Module {
		return &netlist.Module{Name: name, Kind: netlist.Hard, W: w, H: h, Power: p, IntrinsicDelay: d}
	}
	return &netlist.Design{
		Name: "degenerate", Dies: 2, OutlineW: 400, OutlineH: 400,
		Modules: []*netlist.Module{
			mod("a", 80, 60, 0.4, 0.2),
			mod("b", 60, 90, 0.6, 0.3),
			mod("c", 70, 70, 0.5, 0.25),
			mod("d", 90, 50, 0.3, 0.15),
			mod("e", 50, 50, 0.2, 0.1),
			mod("f", 60, 60, 0.7, 0.35),
		},
		Nets: []*netlist.Net{
			{Name: "ab", Modules: []int{0, 1}},
			{Name: "bcd", Modules: []int{1, 2, 3}},
			{Name: "ef", Modules: []int{4, 5}},
			{Name: "af", Modules: []int{0, 5}},
			{Name: "single", Modules: []int{2}},                    // degree 1: degenerate
			{Name: "empty"},                                        // degree 0: degenerate
			{Name: "term", Modules: []int{3}, Terminals: []int{0}}, // STA-skipped, real WL
		},
		Terminals: []*netlist.Terminal{{Name: "p0", X: 0, Y: 200}},
	}
}

// TestDegenerateNetsAgreeAcrossEvaluators drives the full-recompute and
// incremental evaluators over a design containing single-pin and empty
// nets: costs must agree to 1e-9 throughout, the cached WL/delay of the
// degenerate nets must be exactly zero, and no net may carry a negative
// delay (the un-guarded Elmore model gave empty nets sinkPins = -1 and a
// negative delay).
func TestDegenerateNetsAgreeAcrossEvaluators(t *testing.T) {
	des := degenerateNetDesign()
	full := buildEval(des, TSCAware, false, 1)
	inc := buildEval(des, TSCAware, true, 1)
	mrFull := rand.New(rand.NewSource(21))
	mrInc := rand.New(rand.NewSource(21))
	dec := rand.New(rand.NewSource(22))
	if d := relDiff(inc.Cost(), full.Cost()); d > 1e-9 {
		t.Fatalf("initial cost differs by %g", d)
	}
	for i := 0; i < 200; i++ {
		undoFull := full.Perturb(mrFull)
		undoInc := inc.Perturb(mrInc)
		cf, ci := full.Cost(), inc.Cost()
		if d := relDiff(ci, cf); d > 1e-9 {
			t.Fatalf("cycle %d: incremental %v vs full %v (rel diff %g)", i, ci, cf, d)
		}
		if dec.Float64() < 0.5 {
			undoFull()
			undoInc()
		}
	}
	ic := inc.incr
	for ni, n := range des.Nets {
		if n.Degree() < 2 {
			if ic.netWL[ni] != 0 || ic.netDelay[ni] != 0 || ic.netLen[ni] != 0 {
				t.Fatalf("degenerate net %q cached WL/delay not zero: wl=%v delay=%v",
					n.Name, ic.netWL[ni], ic.netDelay[ni])
			}
		}
		if ic.netDelay[ni] < 0 {
			t.Fatalf("net %q has negative cached delay %v", n.Name, ic.netDelay[ni])
		}
	}
}

// naiveNetRefresh is the bit-identity reference for refreshNet: HPWL
// through Layout.NetHPWL, the cross-die flag from a walk over the
// *netlist.Net, the degree from Net.Degree.
func naiveNetRefresh(l *floorplan.Layout, n *netlist.Net, p timing.Params) (ln float64, cross bool, wl, delay float64) {
	if n.Degree() < 2 {
		return 0, false, 0, 0
	}
	ln = l.NetHPWL(n, 0)
	die0 := -1
	for _, mi := range n.Modules {
		if die0 == -1 {
			die0 = l.DieOf[mi]
		} else if l.DieOf[mi] != die0 {
			cross = true
			break
		}
	}
	wl = ln
	if cross {
		wl = ln + p.VertLen
	}
	return ln, cross, wl, timing.ElmoreDelay(ln, cross, n.Degree(), p)
}

// TestRefreshNetMatchesNaive pins the incremental evaluator's cached net
// geometry to the reference refresh with == after every evaluation of a
// journaled run: on n100, and on a hand-built stack that adds a
// terminal-only net and duplicate pins to the degenerate shapes. Both runs
// must see cross-die nets.
func TestRefreshNetMatchesNaive(t *testing.T) {
	des := degenerateNetDesign()
	des.Terminals = append(des.Terminals, &netlist.Terminal{Name: "p1", X: 400, Y: 30})
	des.Nets = append(des.Nets,
		&netlist.Net{Name: "terms-only", Terminals: []int{0, 1}},
		&netlist.Net{Name: "dup", Modules: []int{5, 1, 5}, Terminals: []int{1}})
	for _, ev := range []*evaluator{buildEval(des, TSCAware, true, 3), makeEval(t, PowerAware, true, 4)} {
		nets := ev.fp.Design.Nets
		p := *ev.cfg.TimingParams
		crossSeen := false
		journaledRun(ev, 300, 31, 32, func() {
			ic := ev.incr
			for ni, n := range nets {
				ln, cross, wl, delay := naiveNetRefresh(ic.lay, n, p)
				if ic.netLen[ni] != ln || ic.netCross[ni] != cross || ic.netWL[ni] != wl || ic.netDelay[ni] != delay {
					t.Fatalf("%s net %q: cached len/cross/wl/delay %v/%v/%v/%v, reference %v/%v/%v/%v",
						ev.fp.Design.Name, n.Name, ic.netLen[ni], ic.netCross[ni], ic.netWL[ni], ic.netDelay[ni],
						ln, cross, wl, delay)
				}
				crossSeen = crossSeen || cross
			}
		})
		if !crossSeen {
			t.Fatalf("%s: no cross-die net in the run", ev.fp.Design.Name)
		}
	}
}
