package tscfp

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestEventJSONRoundTrip pins the Event wire schema: progress events cross
// SSE verbatim, so the JSON encoding must round-trip losslessly and keep
// its field names stable.
func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Stage: StageAnneal, Done: 120, Total: 3000, Cost: 42.5},
		{Stage: StageFinalize},
		{Stage: StageSampling, Done: 3, Total: 100},
		{Stage: StagePostProcess, Done: 1, Total: 64, Cost: -0.37},
		{Stage: StageDone},
	}
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != ev {
			t.Fatalf("round trip changed %+v into %+v (wire %s)", ev, back, data)
		}
	}

	data, _ := json.Marshal(Event{Stage: StageAnneal, Done: 1, Total: 2, Cost: 3})
	want := `{"stage":"anneal","done":1,"total":2,"cost":3}`
	if string(data) != want {
		t.Fatalf("wire schema = %s, want %s", data, want)
	}
}

// TestRunOptionsCanonical expands CLI spellings and rejects unknown ones.
func TestRunOptionsCanonical(t *testing.T) {
	c, err := RunOptions{Mode: "tsc", PostCriterion: "all-dies"}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode != string(TSCAware) || c.PostCriterion != string(AllDies) {
		t.Fatalf("canonical = %+v", c)
	}
	if _, err := (RunOptions{Mode: "fast"}).Canonical(); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := (RunOptions{PostCriterion: "top"}).Canonical(); err == nil {
		t.Fatal("unknown criterion accepted")
	}

	// Different spellings of the same configuration canonicalize to
	// identical JSON — the property content addressing relies on.
	a, _ := RunOptions{Mode: "tsc", Seed: 7}.Canonical()
	b, _ := RunOptions{Mode: "tsc-aware", Seed: 7}.Canonical()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("canonical JSON differs: %s vs %s", aj, bj)
	}
}

// TestRunOptionsZeroIsDefault: decoding `{}` configures exactly the same
// flow as passing no options at all.
func TestRunOptionsZeroIsDefault(t *testing.T) {
	var o RunOptions
	if err := json.Unmarshal([]byte(`{}`), &o); err != nil {
		t.Fatal(err)
	}
	opts, err := o.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 0 {
		t.Fatalf("zero RunOptions produced %d options, want 0", len(opts))
	}
}

// TestRunOptionsEquivalentToDirectOptions runs the same tiny flow once via
// RunOptions and once via direct functional options and expects identical
// Results (the serving layer depends on this equivalence).
func TestRunOptionsEquivalentToDirectOptions(t *testing.T) {
	design := MustBenchmark("n100")
	decoded := RunOptions{
		Mode: "tsc", Seed: 42, Iterations: 80, GridN: 12,
		ActivitySamples: 2, MaxDummyGroups: 1,
	}
	opts, err := decoded.Options()
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := Run(context.Background(), design, opts...)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(context.Background(), design,
		WithMode(TSCAware), WithSeed(42), WithIterations(80), WithGridN(12),
		WithActivitySamples(2), WithMaxDummyGroups(1))
	if err != nil {
		t.Fatal(err)
	}
	viaJSON.Metrics.RuntimeSec, direct.Metrics.RuntimeSec = 0, 0
	a, _ := viaJSON.JSON()
	b, _ := direct.JSON()
	if string(a) != string(b) {
		t.Fatalf("RunOptions and direct options diverge (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRunOptionsReplicaCanonical pins the dedupe-key behaviour of the
// parallel-anneal knobs: 1 and 0 select the same serial path and must
// canonicalize to identical JSON (so tscfpd content addresses them to the
// same artifact), explicit counts survive canonicalization, and negatives
// are rejected up front — before a dedupe key could be derived from them.
func TestRunOptionsReplicaCanonical(t *testing.T) {
	zero, err := RunOptions{Seed: 7}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunOptions{Seed: 7, Replicas: 1}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	zj, _ := json.Marshal(zero)
	oj, _ := json.Marshal(one)
	if string(zj) != string(oj) {
		t.Fatalf("replicas=1 and replicas unset canonicalize differently: %s vs %s", oj, zj)
	}

	c, err := RunOptions{Replicas: 4}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Replicas != 4 {
		t.Fatalf("explicit replica count not preserved: %+v", c)
	}
	opts, err := RunOptions{Replicas: 4}.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 1 {
		t.Fatalf("replicas lowered to %d options, want 1", len(opts))
	}
	if _, err := NewFlow(MustBenchmark("n100"), opts...); err != nil {
		t.Fatal(err)
	}
	// The normalized-away serial spelling lowers to no options at all.
	opts, err = RunOptions{Replicas: 1}.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 0 {
		t.Fatalf("serial spelling lowered to %d options, want 0", len(opts))
	}

	if _, err := (RunOptions{Replicas: -1}).Canonical(); err == nil {
		t.Fatal("negative replica count accepted")
	}
}

// TestRunOptionsAllKnobs checks every field lowers into an option that
// NewFlow accepts, and that invalid ranges still surface from NewFlow.
func TestRunOptionsAllKnobs(t *testing.T) {
	pp := true
	par := 2
	w := DefaultWeights(TSCAware)
	full := RunOptions{
		Mode: "pa", Seed: 3, Iterations: 10, GridN: 8,
		ActivitySamples: 2, ActivitySigma: 0.2,
		PostProcess: &pp, PostCriterion: "bottom-die",
		ProtectedModules: []int{0, 1}, MaxDummyGroups: 2, DummyViasPerGroup: 4,
		VoltEvery: 5, VoltTargetFactor: 1.2,
		Weights: &w, Parallelism: &par,
		Replicas: 2,
	}
	opts, err := full.Options()
	if err != nil {
		t.Fatal(err)
	}
	want := reflect.TypeOf(full).NumField()
	if len(opts) != want {
		t.Fatalf("%d options from %d fields", len(opts), want)
	}
	if _, err := NewFlow(MustBenchmark("n100"), opts...); err != nil {
		t.Fatal(err)
	}

	bad := RunOptions{Iterations: -5}
	opts, err = bad.Options()
	if err != nil {
		t.Fatal(err) // spelling is fine; the range error belongs to NewFlow
	}
	if _, err := NewFlow(MustBenchmark("n100"), opts...); err == nil {
		t.Fatal("negative iterations accepted by NewFlow")
	}
}
