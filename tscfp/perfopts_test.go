package tscfp

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

func TestPerfOptionValidation(t *testing.T) {
	design := MustBenchmark("n100")
	if _, err := NewFlow(design, WithParallelism(-1)); err == nil {
		t.Fatal("negative parallelism must fail")
	}
	if _, err := NewFlow(design, WithParallelism(0), WithCostCrossCheck(true)); err != nil {
		t.Fatalf("valid perf options rejected: %v", err)
	}
}

// TestDebugOptionsAgree pins the public determinism contract: for a fixed
// seed, the parallelism setting and the cost cross-check change nothing but
// the stats — the result JSON (runtime aside) is identical.
func TestDebugOptionsAgree(t *testing.T) {
	design := MustBenchmark("n100")
	run := func(opts ...Option) *Result {
		t.Helper()
		all := append([]Option{
			WithMode(TSCAware),
			WithIterations(150),
			WithGridN(16),
			WithPostProcess(false),
			WithSeed(5),
		}, opts...)
		res, err := Run(context.Background(), design, all...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	canon := func(r *Result) string {
		r.Metrics.RuntimeSec = 0
		r.Stats = RunStats{}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	inc := run(WithParallelism(0))
	st := inc.Stats
	if st.Evals == 0 || st.IncrementalEvals == 0 || st.VoltIncrementalRefreshes == 0 ||
		st.VoltCandidatesReused == 0 || st.EntropyPatched == 0 {
		t.Fatalf("incremental caches never engaged: %+v", st)
	}
	if !st.SolverConverged || st.SolverSweeps == 0 {
		t.Fatalf("solver stats not recorded: %+v", st)
	}
	serial := run(WithParallelism(1))
	if canon(serial) != canon(inc) {
		t.Fatal("parallel and serial runs disagree")
	}
	checked := run(WithCostCrossCheck(true))
	if checked.Stats.VoltCrossChecks == 0 || checked.Stats.EntropyCrossChecks == 0 {
		t.Fatalf("voltage refreshes and entropy patches were not cross-checked: %+v", checked.Stats)
	}
	if canon(checked) != canon(inc) {
		t.Fatal("cross-checked run disagrees")
	}
}

// TestChurnStatsWire pins the churn-counter wire contract: the pack_* keys
// are absent from the JSON encoding unless WithChurnStats opts in (keeping
// default encodings byte-identical across the exact-diff rollout), and an
// opted-in incremental run reports real churn — moves, die diffs, changed
// modules, and ordered percentiles.
func TestChurnStatsWire(t *testing.T) {
	design := MustBenchmark("n100")
	run := func(opts ...Option) *Result {
		t.Helper()
		all := append([]Option{
			WithMode(TSCAware),
			WithIterations(120),
			WithGridN(16),
			WithPostProcess(false),
			WithSeed(5),
		}, opts...)
		res, err := Run(context.Background(), design, all...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	data, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"pack_`)) {
		t.Fatal("pack_* churn keys leaked into the default encoding")
	}
	if plain.Stats.PackMoves != 0 {
		t.Fatalf("churn counters surfaced without WithChurnStats: %+v", plain.Stats)
	}
	churn := run(WithChurnStats(true))
	s := churn.Stats
	if s.PackMoves == 0 || s.PackDieDiffs == 0 || s.PackChangedModules == 0 {
		t.Fatalf("opted-in run reported no churn: %+v", s)
	}
	if s.PackChangedP50 <= 0 || s.PackChangedP95 < s.PackChangedP50 {
		t.Fatalf("percentiles not ordered: p50=%d p95=%d", s.PackChangedP50, s.PackChangedP95)
	}
	data, err = churn.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"pack_moves"`)) {
		t.Fatal("WithChurnStats did not surface pack_* keys in the encoding")
	}
	// The knob changes reporting only, never the walk.
	canon := func(r *Result) string {
		r.Metrics.RuntimeSec = 0
		r.Stats = RunStats{}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if canon(plain) != canon(churn) {
		t.Fatal("WithChurnStats changed the annealing walk")
	}
}
