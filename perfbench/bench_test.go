package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		q := percentile(xs, c.p)
		if q.Value != c.want || q.N != len(xs) {
			t.Errorf("percentile(p=%v) = %+v, want %v over %d", c.p, q, c.want, len(xs))
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if q := percentile(nil, 0.5); !math.IsNaN(q.Value) || q.N != 0 {
		t.Errorf("percentile(nil) = %+v, want NaN over 0", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		// Overlapping children cover [1,5] once; the third reaches past
		// the parent, and only its part inside [0,10] counts.
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 3, Name: "b.1", Start: 2.5, End: 3.5},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 4, 2: 2, 3: 2, 4: 4, 5: 1}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against: the metric names every workload must report.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func tinyMix(w mixWorkload) mixWorkload {
	w.Iterations, w.GridN, w.Samples = 40, 8, 4
	w.Blocks, w.SetupReps = 1, 2
	w.Rechecks = min(w.Rechecks, 1)
	return w
}

func tinyFlow(w flowWorkload) flowWorkload {
	w.Iterations, w.GridN, w.Samples = 60, 8, 4
	w.Seeds, w.Runs, w.SetupReps = 2, 3, 2
	w.Service = tinyMix(w.Service)
	return w
}

// TestSmokeEveryWorkload runs each workload at a tiny budget, untraced and
// traced, and checks that it is correct and reports exactly the metrics
// BENCHMARK.json lists, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	tiny := map[string]workloadFunc{
		"flow-n100":   tinyFlow(flowN100).run,
		"flow-ibm01":  tinyFlow(flowIBM01).run,
		"service-mix": tinyMix(serviceMix).run,
	}
	if len(spec.Workloads) != len(tiny) || len(workloads) != len(tiny) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		run, ok := tiny[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not defined", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			t.Run(wl.Name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				cfg := runConfig{Seed: 3, Trace: traced, WorkDir: dir}
				want := map[string]string{}
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
				if traced {
					cfg.TraceFile = filepath.Join(dir, "trace.json")
					want = map[string]string{}
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				res, err := execute(run, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if u, ok := want[name]; !ok || u != m.Unit {
						t.Errorf("metric %s (%s) is not listed in BENCHMARK.json with that unit", name, m.Unit)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s is missing", name)
					}
				}
				sort.Strings(got)
				t.Logf("%d metrics: %v", len(got), got)
				if traced {
					if _, err := os.Stat(cfg.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}
