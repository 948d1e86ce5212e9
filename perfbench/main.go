// Command perfbench is the repository's benchmark: it drives the public
// tscfp flow and an in-process tscfpd from one process, checks every output,
// and prints its metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload flow-n100 --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists and which metrics it moves):
//
//	flow-n100    the default TSC-aware flow on n100
//	flow-ibm01   the default TSC-aware flow on ibm01
//	service-mix  new jobs and resubmissions against an in-process tscfpd
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced pass reports the per-layer metrics, measured by timing
// the benchmark's own calls into each layer's public functions, and writes
// its spans to .bench_build/traces/. The seed only generates the inputs
// (flow seeds, the job stream); the program receives nothing else.
//
// Each workload measures a fixed amount of work — a fixed number of flow
// runs or of service jobs — sized so that the timed region takes 25 to 45
// seconds on a 2-core machine. --seconds is accepted for the benchmark's
// command-line interface but does not bound the work, so that a faster
// program measures the same runs, not more of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	Seed  int64
	Trace bool
	// TraceFile receives the traced run's spans ("" skips writing them).
	TraceFile string
	// WorkDir holds the temporary registry directories.
	WorkDir string
}

// workloadFunc runs one workload and fills in its metrics. tr is nil
// unless cfg.Trace is set.
type workloadFunc func(cfg runConfig, tr *tracer, out *report) error

// workloads maps each workload name to its definition at full size.
var workloads = map[string]workloadFunc{
	"flow-n100":   flowN100.run,
	"flow-ibm01":  flowIBM01.run,
	"service-mix": serviceMix.run,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: flow-n100, flow-ibm01 or service-mix")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 30, "nominal length of the timed region in seconds (the work is fixed)")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{
		Seed:    *seed,
		Trace:   *trace == 1,
		WorkDir: filepath.Join(".bench_build", "tmp"),
	}
	if cfg.Trace {
		cfg.TraceFile = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	}
	res, err := execute(run, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	env, _ := json.Marshal(map[string]any{ // strings and ints always encode
		"workload": *name, "seed": *seed, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	})
	fmt.Printf("env %s\n", env)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs a workload and turns its report into the printed result.
func execute(run workloadFunc, cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	out := newReport()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	if err := run(cfg, tr, out); err != nil {
		return nil, err
	}
	if cfg.TraceFile != "" {
		if err := writeTrace(cfg.TraceFile, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.op(fmt.Errorf("metric %s was not measured", name))
			delete(out.metrics, name)
		}
	}
	if !cfg.Trace {
		out.setOK() // after the check above, which can add failures
	}
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	if out.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}, nil
}

// report accumulates a workload's operation outcomes and metrics. It is
// safe for concurrent use by the service workload's clients.
type report struct {
	mu                sync.Mutex
	attempted, failed int
	notes             []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// op counts one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.notes = append(r.notes, "FAILED: "+err.Error())
	}
}

// note records an informational line (sample counts and the like),
// printed to stderr with the result.
func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setOK records ok_frac, the share of attempted operations that succeeded.
func (r *report) setOK() {
	r.mu.Lock()
	v := 1 - ratio(float64(r.failed), float64(r.attempted))
	r.mu.Unlock()
	r.set("ok_frac", "frac", v)
}

// set records one metric.
func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}
