package main

import (
	"strings"
	"testing"
)

// TestCompareSkipsOneSidedRows pins the gate's skip contract: benchmarks
// present in only one snapshot are reported with a notice but never counted
// as regressions, while shared rows still gate on the tolerance.
func TestCompareSkipsOneSidedRows(t *testing.T) {
	oldRows := map[string]float64{
		"BenchmarkAnnealLoop/n100":  100,
		"BenchmarkRetired":          50,
		"BenchmarkDetailedSolve/ok": 200,
	}
	newRows := map[string]float64{
		"BenchmarkAnnealLoop/n100":  125, // +25% — beyond the 10% tolerance
		"BenchmarkDetailedSolve/ok": 205, // +2.5% — within tolerance
		"BenchmarkFreshlyAdded":     70,  // no baseline
	}
	var buf strings.Builder
	regressions := compare(&buf, oldRows, newRows, 0.10)
	out := buf.String()
	if regressions != 1 {
		t.Fatalf("want exactly the +25%% row to regress, got %d\n%s", regressions, out)
	}
	for _, want := range []string{
		"REGRESSED BenchmarkAnnealLoop/n100",
		"ok        BenchmarkDetailedSolve/ok",
		"MISSING  BenchmarkRetired",
		"NEW      BenchmarkFreshlyAdded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "(in baseline only, skipped)") ||
		!strings.Contains(out, "(no baseline, skipped)") {
		t.Errorf("one-sided rows not marked as skipped:\n%s", out)
	}
}

// TestCompareEmptyIntersection is the degenerate skip path: two snapshots
// with no benchmark in common produce notices only and pass the gate.
func TestCompareEmptyIntersection(t *testing.T) {
	var buf strings.Builder
	regressions := compare(&buf,
		map[string]float64{"BenchmarkOld": 10},
		map[string]float64{"BenchmarkNew": 20}, 0.10)
	if regressions != 0 {
		t.Fatalf("disjoint snapshots must not regress, got %d\n%s", regressions, buf.String())
	}
	if !strings.Contains(buf.String(), "MISSING") || !strings.Contains(buf.String(), "NEW") {
		t.Fatalf("disjoint snapshots must log both notices:\n%s", buf.String())
	}
}

// TestExtraValueParsesAllocs reads allocs/op out of a bench.sh extra field:
// the value is the token before its unit, wherever the pair sits among the
// custom metrics, and a row without the unit reports nothing.
func TestExtraValueParsesAllocs(t *testing.T) {
	extra := "ns/op 0.7861 dies_reused/eval 511.6 nets_reused/eval 117771552 B/op 631934 allocs/op"
	if v, ok := extraValue(extra, "allocs/op"); !ok || v != 631934 {
		t.Fatalf("allocs/op = %v, %v; want 631934, true", v, ok)
	}
	if v, ok := extraValue(extra, "B/op"); !ok || v != 117771552 {
		t.Fatalf("B/op = %v, %v; want 117771552, true", v, ok)
	}
	if _, ok := extraValue("ns/op 0.5 dies_reused/eval", "allocs/op"); ok {
		t.Fatal("a row without -benchmem columns must report no allocs/op")
	}
}

// TestCompareGatesAllocations pins the allocation half of the gate: an
// allocs/op growth beyond the tolerance fails, a drop or a growth within it
// passes, and a zero baseline fails on any growth.
func TestCompareGatesAllocations(t *testing.T) {
	oldRows := map[string]float64{
		"BenchmarkAnnealLoop/n100":  100000,
		"BenchmarkAnnealLoop/ibm01": 5000000,
		"BenchmarkAnnealLoop/tiny":  0,
	}
	pass := map[string]float64{
		"BenchmarkAnnealLoop/n100":  105000, // +5%: within tolerance
		"BenchmarkAnnealLoop/ibm01": 400000, // a 12x drop
		"BenchmarkAnnealLoop/tiny":  0,
	}
	var buf strings.Builder
	if n := compareUnit(&buf, "allocs/op", oldRows, pass, 0.10); n != 0 {
		t.Fatalf("drops and in-tolerance growth must pass, got %d regressions\n%s", n, buf.String())
	}
	fail := map[string]float64{
		"BenchmarkAnnealLoop/n100":  130000, // +30%
		"BenchmarkAnnealLoop/ibm01": 5000000,
		"BenchmarkAnnealLoop/tiny":  3, // any growth over a zero baseline
	}
	buf.Reset()
	if n := compareUnit(&buf, "allocs/op", oldRows, fail, 0.10); n != 2 {
		t.Fatalf("want the +30%% row and the zero-baseline row to regress, got %d\n%s", n, buf.String())
	}
	for _, want := range []string{
		"REGRESSED BenchmarkAnnealLoop/n100",
		"REGRESSED BenchmarkAnnealLoop/tiny",
		"ok        BenchmarkAnnealLoop/ibm01",
		"allocs/op",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}
