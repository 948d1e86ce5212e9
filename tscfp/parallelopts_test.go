package tscfp

import (
	"context"
	"strings"
	"testing"
)

func TestParallelOptionValidation(t *testing.T) {
	design := MustBenchmark("n100")
	if _, err := NewFlow(design, WithReplicas(-1)); err == nil {
		t.Fatal("negative replica count must fail")
	}
	if _, err := NewFlow(design, WithReplicas(0)); err != nil {
		t.Fatalf("serial spelling rejected: %v", err)
	}
}

// TestReplicasResultStats runs a small tempered flow and checks the repl_*
// stats surface in the Result — and, just as importantly, that a serial
// run's JSON still carries none of them, so existing consumers (and the
// golden fixtures) see byte-identical encodings.
func TestReplicasResultStats(t *testing.T) {
	design := MustBenchmark("n100")
	base := []Option{
		WithMode(TSCAware), WithIterations(100), WithGridN(12),
		WithActivitySamples(2), WithMaxDummyGroups(1), WithSeed(7),
	}
	par, err := Run(context.Background(), design,
		append(base, WithReplicas(2))...)
	if err != nil {
		t.Fatal(err)
	}
	s := par.Stats
	if s.ReplicaCount != 2 {
		t.Fatalf("replica count not reported: %+v", s)
	}
	if s.ReplicaSwapAttempts == 0 {
		t.Fatalf("parallel anneal did no work: %+v", s)
	}
	if s.ReplicaBest < 0 || s.ReplicaBest >= 2 {
		t.Fatalf("best replica %d out of range", s.ReplicaBest)
	}
	data, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"repl_replicas": 2`) {
		t.Fatal("parallel stats missing from the JSON encoding")
	}

	serial, err := Run(context.Background(), design, base...)
	if err != nil {
		t.Fatal(err)
	}
	data, err = serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"repl_`) {
		t.Fatal("serial result JSON grew repl_ keys; fixtures would break")
	}
}
