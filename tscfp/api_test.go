package tscfp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// testOptions keeps API tests fast: tiny grid, short anneal, few samples.
func testOptions(extra ...Option) []Option {
	opts := []Option{
		WithGridN(12),
		WithIterations(120),
		WithActivitySamples(6),
		WithMaxDummyGroups(4),
		WithSeed(42),
	}
	return append(opts, extra...)
}

// TestGoldenDeterminism is the WithSeed contract: the same design, seed, and
// options produce byte-identical JSON Results across independent runs.
func TestGoldenDeterminism(t *testing.T) {
	design := MustBenchmark("n100")
	encode := func() []byte {
		t.Helper()
		res, err := Run(context.Background(), design, testOptions(WithMode(TSCAware))...)
		if err != nil {
			t.Fatal(err)
		}
		res.Metrics.RuntimeSec = 0 // wall clock is the one nondeterministic field
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed and options produced different JSON (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRunCancellation cancels mid-anneal (from the first progress event) and
// expects a prompt ctx.Err() with no partial result.
func TestRunCancellation(t *testing.T) {
	design := MustBenchmark("n100")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flow, err := NewFlow(design,
		WithGridN(16),
		WithIterations(100000), // far more budget than the deadline allows
		WithSeed(7),
		WithProgress(func(ev Event) {
			if ev.Stage == StageAnneal {
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := flow.Run(ctx)
	if res != nil {
		t.Fatal("cancelled run returned a partial result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A full 100k-iteration run takes minutes; a prompt exit stays well
	// under the generous bound (loose enough for slow CI machines).
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}

// TestResultJSONRoundTrip checks that a Result survives encode/decode with
// all snapshot fields intact and validates.
func TestResultJSONRoundTrip(t *testing.T) {
	design := MustBenchmark("n100")
	res, err := Run(context.Background(), design, testOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Core() == nil {
		t.Fatal("live result must carry the internal handle")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), buf.Bytes()...)
	back, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Core() != nil {
		t.Fatal("decoded result must not carry a live handle")
	}
	if back.Metrics.R1 != res.Metrics.R1 || back.Benchmark != res.Benchmark ||
		len(back.Modules) != len(res.Modules) || len(back.TSVs) != len(res.TSVs) {
		t.Fatal("round trip lost data")
	}
	// Renderers work from the snapshot alone.
	if hm, err := back.PowerHeatmap(0); err != nil || len(hm) == 0 {
		t.Fatalf("decoded heatmap: %q, %v", hm, err)
	}

	// Artifacts stored before the STA cache, the adjacency index and
	// speculative moves were retired still carry their sta_*/adj_*/spec_*
	// stats keys; they must stay readable and re-encode to the current bytes.
	var doc map[string]any
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	stats := doc["stats"].(map[string]any)
	for _, k := range []string{"sta_patches", "sta_rebuilds", "sta_modules_recomputed", "sta_crit_rescans",
		"sta_cross_checks", "sta_gate_trips", "adj_full_sweeps", "adj_incremental_updates",
		"adj_rows_changed", "adj_cross_checks", "adj_bulk_fallbacks",
		"spec_workers", "spec_batches", "spec_commits", "spec_discarded"} {
		stats[k] = 7
	}
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	old, err := ReadResult(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("result with retired stats keys rejected: %v", err)
	}
	var again bytes.Buffer
	if err := old.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("result with retired stats keys re-encodes differently")
	}
}

// TestDesignJSONRoundTrip checks a decoded design is flow-equivalent to the
// original: same netlist stats and an identical flow result for the same
// seed.
func TestDesignJSONRoundTrip(t *testing.T) {
	design := MustBenchmark("n100")
	data, err := json.Marshal(design)
	if err != nil {
		t.Fatal(err)
	}
	var back Design
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumModules() != design.NumModules() || back.NumNets() != design.NumNets() ||
		back.NumTerminals() != design.NumTerminals() || back.TotalPower() != design.TotalPower() {
		t.Fatal("design round trip changed the netlist")
	}
	run := func(d *Design) *Result {
		t.Helper()
		res, err := Run(context.Background(), d, testOptions(WithMode(PowerAware))...)
		if err != nil {
			t.Fatal(err)
		}
		res.Metrics.RuntimeSec = 0
		return res
	}
	ra, rb := run(design), run(&back)
	ja, _ := ra.JSON()
	jb, _ := rb.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatal("decoded design floorplans differently from the original")
	}
}

// TestOptionValidation checks bad options fail at NewFlow, not at Run.
func TestOptionValidation(t *testing.T) {
	design := MustBenchmark("n100")
	if _, err := NewFlow(design, WithMode("hyper-aware")); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := NewFlow(design, WithMode("")); err == nil {
		t.Fatal("empty mode accepted (would mislabel results)")
	}
	if _, err := NewFlow(design, WithIterations(-1)); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := NewFlow(nil); err == nil {
		t.Fatal("nil design accepted")
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestProgressEvents checks the stages arrive in flow order and the anneal
// counter is monotone.
func TestProgressEvents(t *testing.T) {
	design := MustBenchmark("n100")
	var stages []Stage
	lastDone := -1
	_, err := Run(context.Background(), design, testOptions(
		WithMode(TSCAware),
		WithProgress(func(ev Event) {
			if len(stages) == 0 || stages[len(stages)-1] != ev.Stage {
				stages = append(stages, ev.Stage)
			}
			if ev.Stage == StageAnneal {
				if ev.Done < lastDone {
					t.Errorf("anneal progress went backwards: %d after %d", ev.Done, lastDone)
				}
				lastDone = ev.Done
			}
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageAnneal, StageFinalize, StageSampling, StagePostProcess, StageDone}
	if len(stages) != len(want) {
		t.Fatalf("stages %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stages %v, want %v", stages, want)
		}
	}
}

// TestPostProcessDefaultByMode checks the tri-state replacement: dummy TSVs
// appear by default only in TSC mode, and WithPostProcess overrides both
// defaults.
func TestPostProcessDefaultByMode(t *testing.T) {
	design := MustBenchmark("n100")
	run := func(opts ...Option) *Result {
		t.Helper()
		res, err := Run(context.Background(), design, testOptions(opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(WithMode(PowerAware)); res.Metrics.DummyTSVs != 0 {
		t.Fatalf("PA default ran post-processing (%d dummy TSVs)", res.Metrics.DummyTSVs)
	}
	if res := run(WithMode(PowerAware), WithPostProcess(true)); res.Metrics.SVF1 == 0 {
		t.Fatal("WithPostProcess(true) did not run the sampling stage in PA mode")
	}
	if res := run(WithMode(TSCAware), WithPostProcess(false)); res.Metrics.DummyTSVs != 0 {
		t.Fatalf("WithPostProcess(false) still inserted %d dummy TSVs", res.Metrics.DummyTSVs)
	}
}
