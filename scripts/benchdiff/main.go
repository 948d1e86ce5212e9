// Command benchdiff compares two BENCH_<rev>.json perf snapshots (as emitted
// by scripts/bench.sh) and fails when a benchmark matching the filter
// regressed beyond the tolerance — the ROADMAP's perf-trajectory gate. Two
// figures are gated per row, each against the same tolerance: ns/op, and the
// allocs/op that -benchmem records in the row's extra field. Allocation
// counts are nearly constant for a fixed seed and budget, so that half of
// the gate catches allocation regressions without timing noise.
//
// Usage:
//
//	go run ./scripts/benchdiff -old BENCH_abc1234.json -new BENCH_def5678.json
//	go run ./scripts/benchdiff -filter 'BenchmarkAnnealLoop' -tolerance 0.10 ...
//
// Benchmark names are normalized by stripping the trailing -GOMAXPROCS
// suffix, so snapshots recorded at different core counts still line up.
// Rows present in only one snapshot are reported but never fail the gate
// (new benchmarks land without a baseline; retired ones drop out).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type snapshot struct {
	Meta struct {
		GitRev    string `json:"git_rev"`
		GoVersion string `json:"go_version"`
		Nproc     int    `json:"nproc"`
	} `json:"meta"`
	Benchmarks []struct {
		Benchmark string  `json:"benchmark"`
		NsPerOp   float64 `json:"ns_per_op"`
		Extra     string  `json:"extra"`
	} `json:"benchmarks"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// compare gates ns/op: see compareUnit.
func compare(w io.Writer, oldRows, newRows map[string]float64, tolerance float64) int {
	return compareUnit(w, "ns/op", oldRows, newRows, tolerance)
}

// compareUnit writes one line per benchmark and returns the number of rows
// that grew beyond the tolerance in the given unit. Rows present in only one
// snapshot are skipped with a logged notice — never a failure — so new
// benchmarks can land without a baseline and retired ones can drop out
// without breaking the gate. A zero baseline regresses on any growth.
func compareUnit(w io.Writer, unit string, oldRows, newRows map[string]float64, tolerance float64) int {
	names := make([]string, 0, len(oldRows))
	for name := range oldRows {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		oldV := oldRows[name]
		newV, ok := newRows[name]
		if !ok {
			//lint:besteffort diagnostic report to stdout; the exit code carries the verdict
			fmt.Fprintf(w, "  MISSING  %-60s (in baseline only, skipped)\n", name)
			continue
		}
		delta := 0.0
		switch {
		case oldV > 0:
			delta = (newV - oldV) / oldV
		case newV > oldV:
			delta = math.Inf(1)
		}
		mark := "ok"
		if delta > tolerance {
			mark = "REGRESSED"
			regressions++
		}
		//lint:besteffort diagnostic report to stdout; the exit code carries the verdict
		fmt.Fprintf(w, "  %-9s %-60s %12.0f -> %12.0f %s (%+.1f%%)\n", mark, name, oldV, newV, unit, delta*100)
	}
	names = names[:0]
	for name := range newRows {
		if _, ok := oldRows[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		//lint:besteffort diagnostic report to stdout; the exit code carries the verdict
		fmt.Fprintf(w, "  NEW      %-60s %12.0f %s (no baseline, skipped)\n", name, newRows[name], unit)
	}
	return regressions
}

// extraValue returns the value recorded for unit in a row's extra field
// (bench.sh keeps the benchmark line's "<value> <unit>" pairs there), or
// false when the row does not report that unit.
func extraValue(extra, unit string) (float64, bool) {
	f := strings.Fields(extra)
	for i := 1; i < len(f); i++ {
		if f[i] == unit {
			v, err := strconv.ParseFloat(f[i-1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// load reads a snapshot and returns its filtered ns/op and allocs/op rows.
func load(path string, filter *regexp.Regexp) (s snapshot, ns, allocs map[string]float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return s, nil, nil, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	ns = make(map[string]float64)
	allocs = make(map[string]float64)
	for _, b := range s.Benchmarks {
		name := gomaxprocsSuffix.ReplaceAllString(b.Benchmark, "")
		if !filter.MatchString(name) {
			continue
		}
		if b.NsPerOp > 0 {
			ns[name] = b.NsPerOp
		}
		if v, ok := extraValue(b.Extra, "allocs/op"); ok {
			allocs[name] = v
		}
	}
	return s, ns, allocs, nil
}

func main() {
	oldPath := flag.String("old", "", "baseline BENCH_<rev>.json (committed snapshot)")
	newPath := flag.String("new", "", "freshly emitted BENCH_<rev>.json")
	filterStr := flag.String("filter", "BenchmarkAnnealLoop", "regexp selecting the gated benchmarks")
	tolerance := flag.Float64("tolerance", 0.10, "maximum allowed relative growth of ns/op and of allocs/op (0.10 = +10%)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		os.Exit(2)
	}
	filter, err := regexp.Compile(*filterStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad -filter: %v\n", err)
		os.Exit(2)
	}
	oldSnap, oldRows, oldAllocs, err := load(*oldPath, filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newSnap, newRows, newAllocs, err := load(*newPath, filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("baseline %s (%d cores) -> current %s (%d cores), gate: %s > +%.0f%%\n",
		oldSnap.Meta.GitRev, oldSnap.Meta.Nproc, newSnap.Meta.GitRev, newSnap.Meta.Nproc,
		*filterStr, *tolerance*100)

	regressions := compare(os.Stdout, oldRows, newRows, *tolerance) +
		compareUnit(os.Stdout, "allocs/op", oldAllocs, newAllocs, *tolerance)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark figure(s) regressed beyond +%.0f%%\n",
			regressions, *tolerance*100)
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions beyond tolerance")
}
