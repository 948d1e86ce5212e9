package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/tscfp"
)

// flowWorkload is one design run through the default TSC-aware flow.
type flowWorkload struct {
	Design     string
	Iterations int
	GridN      int
	Samples    int
	// Seeds is the number of distinct flow seeds one run draws from the
	// workload seed. Quality metrics average over them and the timed loop
	// cycles through them, so one unlucky seed does not set a run's figures.
	Seeds int
	// Runs is the fixed number of timed runs, at least Seeds+1 so that the
	// first seed repeats. It does not depend on how fast the runs are, so
	// every run of the benchmark measures the same seeds.
	Runs int
	// SetupReps is how often set-up is repeated to take its median.
	SetupReps int
	// Service is the small tscfpd pass the traced run makes with this
	// workload's design, so the server and registry layers are measured
	// on every workload.
	Service mixWorkload
}

// flowN100 and flowIBM01 are the two flow workloads at full size: the
// defaults of tscfp.Run (3000 iterations, grid 32, 100 activity samples,
// post-processing on).
var (
	flowN100 = flowWorkload{
		Design: "n100", Iterations: 3000, GridN: 32, Samples: 100,
		Seeds: 3, Runs: 4, SetupReps: 60, Service: flowServicePass("n100"),
	}
	flowIBM01 = flowWorkload{
		Design: "ibm01", Iterations: 3000, GridN: 32, Samples: 100,
		Seeds: 2, Runs: 3, SetupReps: 60, Service: flowServicePass("ibm01"),
	}
)

// The warm-up run's budget: enough to run every stage of the flow once.
const (
	warmupIterations = 300
	warmupSamples    = 10
)

// options are the flow options for one seed. The mode and post-processing
// are spelled out although they are the defaults, so a change of default
// does not silently change the workload.
func (w flowWorkload) options(seed int64) []tscfp.Option {
	return []tscfp.Option{
		tscfp.WithMode(tscfp.TSCAware),
		tscfp.WithSeed(seed),
		tscfp.WithIterations(w.Iterations),
		tscfp.WithGridN(w.GridN),
		tscfp.WithActivitySamples(w.Samples),
		tscfp.WithPostProcess(true),
	}
}

// flowSeeds draws n distinct flow seeds from the workload seed.
func flowSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63n(1 << 31)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// setup synthesizes the design and builds one Flow per seed, SetupReps
// times; it returns the last repetition's flows and the median set-up time.
func (w flowWorkload) setup(seeds []int64) ([]*tscfp.Flow, float64, error) {
	var (
		flows []*tscfp.Flow
		times []float64
	)
	for rep := 0; rep < max(1, w.SetupReps); rep++ {
		runtime.GC() // each round starts from a collected heap, untimed
		t0 := time.Now()
		d, err := tscfp.Benchmark(w.Design)
		if err != nil {
			return nil, 0, err
		}
		fs := make([]*tscfp.Flow, len(seeds))
		for i, s := range seeds {
			if fs[i], err = tscfp.NewFlow(d, w.options(s)...); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		flows = fs
	}
	return flows, median(times), nil
}

// flowRun is one checked Flow.Run.
type flowRun struct {
	res     *tscfp.Result
	bytes   []byte // the result's JSON with runtime_sec zeroed
	seconds float64
	allocB  float64 // bytes allocated during the run
}

// runFlow runs f once, outside any timer but its own, and checks the
// result: no error, Validate passes, and it encodes.
func runFlow(f *tscfp.Flow) (flowRun, error) {
	runtime.GC() // start every run from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := f.Run(context.Background())
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return flowRun{}, err
	}
	b, err := canonicalJSON(res)
	if err != nil {
		return flowRun{}, err
	}
	return flowRun{res: res, bytes: b, seconds: el.Seconds(), allocB: float64(m1.TotalAlloc - m0.TotalAlloc)}, nil
}

// canonicalJSON is the result's JSON with the wall-clock field zeroed, the
// form in which two runs of one seed must agree byte for byte.
func canonicalJSON(res *tscfp.Result) ([]byte, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	rt := res.Metrics.RuntimeSec
	res.Metrics.RuntimeSec = 0
	b, err := res.JSON()
	res.Metrics.RuntimeSec = rt
	return b, err
}

// sameResult reports whether a repeat of a seed reproduced the reference.
func sameResult(seed int64, ref, got flowRun) error {
	if string(ref.bytes) != string(got.bytes) {
		return fmt.Errorf("seed %d: repeated run's JSON differs from the first run's", seed)
	}
	if rb, gb := ref.res.Core().EvalStats.AnnealBestCost, got.res.Core().EvalStats.AnnealBestCost; rb != gb {
		return fmt.Errorf("seed %d: repeated run's best cost %v differs from %v", seed, gb, rb)
	}
	return nil
}

func (w flowWorkload) run(cfg runConfig, tr *tracer, out *report) error {
	seeds := flowSeeds(cfg.Seed, max(1, w.Seeds))
	if cfg.Trace {
		return w.traced(cfg, tr, out, seeds[0])
	}
	flows, setupS, err := w.setup(seeds)
	if err != nil {
		return err
	}

	// Warm-up: one short run of the first seed on the same design and
	// grid, untimed, so the timed runs start with warm caches and a grown
	// heap. Its result is not compared with anything.
	warm, err := tscfp.NewFlow(flows[0].Design(), append(w.options(seeds[0]),
		tscfp.WithIterations(warmupIterations), tscfp.WithActivitySamples(warmupSamples))...)
	if err != nil {
		return err
	}
	_, err = runFlow(warm)
	out.op(err)
	if err != nil {
		return nil
	}

	// Timed loop: Runs runs cycling through the seeds, so the first seed
	// repeats and must reproduce its first run byte for byte. Quality is
	// exact per seed, so it is taken once per distinct seed; times and
	// allocations from every run.
	refs := make(map[int]flowRun)
	var times, allocs []float64
	start := time.Now()
	for i := 0; i < max(w.Runs, len(flows)+1); i++ {
		k := i % len(flows)
		r, err := runFlow(flows[k])
		if err == nil {
			if ref, ok := refs[k]; ok {
				err = sameResult(seeds[k], ref, r)
			} else {
				refs[k] = r
			}
		}
		out.op(err)
		if err != nil {
			continue
		}
		times = append(times, r.seconds)
		allocs = append(allocs, r.allocB)
	}
	elapsed := time.Since(start).Seconds()

	var best, r1 []float64
	for k := range flows {
		if r, ok := refs[k]; ok {
			best = append(best, r.res.Core().EvalStats.AnnealBestCost)
			r1 = append(r1, math.Abs(r.res.Metrics.R1))
		}
	}
	out.note("%s: %d timed runs over %d seeds in %.1fs; flow_s and job quantiles over n=%d runs",
		w.Design, len(times), len(flows), elapsed, len(times))
	flowS := median(times)
	out.set("setup_s", "s", setupS)
	out.set("flow_s", "s", flowS)
	out.set("best_cost", "cost", mean(best))
	out.set("r1_abs", "corr", mean(r1))
	out.set("alloc_mb", "MB", median(allocs)/1e6)
	// A job here is one Flow.Run, and 3 or 4 of them leave no sample beyond
	// any quantile above the median: the highest quantile they measure is
	// the median, so both job quantiles report it. (The slowest run, which a
	// nearest-rank p90 would pick, moved with every stall of the machine.)
	out.set("job_p50_s", "s", flowS)
	out.set("job_p90_s", "s", flowS)
	out.set("jobs_per_s", "1/s", float64(len(times))/elapsed)
	return nil
}

// traced is the --trace 1 pass of a flow workload: the traced flow and
// layer timings on the first seed, then the small service pass and the
// direct registry calls.
func (w flowWorkload) traced(cfg runConfig, tr *tracer, out *report, seed int64) error {
	d, err := tscfp.Benchmark(w.Design)
	if err != nil {
		return err
	}
	if err := traceFlow(tr, out, d, w.options(seed), seed); err != nil {
		return err
	}
	payloads, err := w.Service.traced(cfg, tr, out)
	if err != nil {
		return err
	}
	return traceRegistry(tr, out, cfg.WorkDir, payloads)
}

// tracedRuns is how many traced runs traceFlow makes; each follows an
// untraced one.
const tracedRuns = 2

// traceFlow runs one seed's flow untraced and traced in turn, starting
// untraced (the warm-up and reference), and checks that every result is
// byte-identical, because observing a run must not change it. It reports
// the tracing overhead as the median traced wall time minus the median
// untraced one, and derives the tscfp, core and layer metrics from the
// last traced run.
func traceFlow(tr *tracer, out *report, d *tscfp.Design, opts []tscfp.Option, seed int64) error {
	var stages *stageSpans
	observe := func(ev tscfp.Event) { stages.observe(ev) }
	plain, err := tscfp.NewFlow(d, opts...)
	if err != nil {
		return err
	}
	traced, err := tscfp.NewFlow(d, append(opts, tscfp.WithProgress(observe))...)
	if err != nil {
		return err
	}

	var (
		ref             flowRun
		res             *tscfp.Result
		tracedS, plainS []float64
	)
	for i := 0; i < tracedRuns; i++ {
		r, err := runFlow(plain)
		if err == nil && i > 0 {
			err = sameResult(seed, ref, r)
		}
		out.op(err)
		if err != nil {
			return nil
		}
		if i == 0 {
			ref = r
		}
		plainS = append(plainS, r.seconds)

		trace := fmt.Sprintf("flow-%s-%d-%d", d.Name(), seed, i)
		stages = newStageSpans(tr, trace)
		runtime.GC()
		root, end := tr.begin(0, trace, "tscfp.Flow.Run")
		stages.start(root)
		t0 := time.Now()
		res, err = traced.Run(context.Background())
		tracedS = append(tracedS, time.Since(t0).Seconds())
		end()
		if err == nil {
			var b []byte
			if b, err = canonicalJSON(res); err == nil {
				err = sameResult(seed, ref, flowRun{res: res, bytes: b})
			}
		}
		out.op(err)
		if err != nil {
			return nil
		}
	}

	st := res.Core().EvalStats
	evals := float64(st.Evals)
	anneal := stages.dur["anneal"]
	last := tracedS[len(tracedS)-1]
	covered := 0.0
	for _, s := range stageOrder {
		covered += stages.dur[s]
		out.set("tscfp."+stageMetric(s)+"_s", "s", stages.dur[s])
	}
	out.set("tscfp.stage_cover_frac", "frac", ratio(covered, last))
	out.set("trace.overhead_s", "s", median(tracedS)-median(plainS))
	out.set("core.evals", "count", evals)
	out.set("core.us_per_move", "us", ratio(anneal*1e6, evals))
	out.set("core.allocs_per_move", "count", ratio(float64(stages.annealMallocs), evals))
	out.set("core.bytes_per_move", "B", ratio(float64(stages.annealBytes), evals))
	out.set("core.nets_recomputed_per_eval", "count", ratio(float64(st.NetsRecomputed), evals))
	out.set("core.dies_repacked_per_eval", "count", ratio(float64(st.DiesRepacked), evals))
	out.set("core.responses_computed_per_eval", "count", ratio(float64(st.ResponsesComputed), evals))
	out.set("floorplan.pack_changed_p50", "count", float64(st.PackChangedPercentile(0.5)))
	out.set("floorplan.pack_early_exit_frac", "frac", ratio(float64(st.PackEarlyExits), float64(st.PackDieDiffs)))
	out.set("timing.sta_gate_trip_frac", "frac", ratio(float64(st.STAGateTrips), float64(st.PackMoves)))
	out.set("timing.sta_mods_per_patch", "count", ratio(float64(st.STAModulesRecomputed), float64(st.STAPatches)))
	out.set("volt.cands_reused_frac", "frac", ratio(float64(st.VoltCandidatesReused), float64(st.VoltCandidatesReused+st.VoltCandidatesRegrown)))
	out.set("leakage.entropy_patched_frac", "frac", ratio(float64(st.EntropyPatched), float64(st.EntropyPatched+st.EntropyRebuilt)))
	out.note("%s seed %d: untraced %.3v s, traced %.3v s, stages cover %.4f of the last traced run",
		d.Name(), seed, plainS, tracedS, ratio(covered, last))

	timeLayers(tr, out, d, res, seed)
	return nil
}

// stageOrder lists the flow's stages as its progress events name them;
// "calibrate" is the stretch before the first event.
var stageOrder = []string{"calibrate", string(tscfp.StageAnneal), string(tscfp.StageFinalize),
	string(tscfp.StageSampling), string(tscfp.StagePostProcess)}

// stageMetric turns a stage name into its metric-name form.
func stageMetric(s string) string {
	if s == string(tscfp.StagePostProcess) {
		return "post_process"
	}
	return s
}

// stageSpans turns a flow's progress events into one span per stage. The
// callback compares one string per event and reads the clock only when
// the stage changes; memory statistics are read at the anneal's two ends.
type stageSpans struct {
	tr    *tracer
	trace string
	root  int
	cur   string
	since time.Time
	dur   map[string]float64

	m0                         runtime.MemStats
	annealMallocs, annealBytes uint64
}

func newStageSpans(tr *tracer, trace string) *stageSpans {
	return &stageSpans{tr: tr, trace: trace, dur: make(map[string]float64)}
}

// start marks the beginning of Flow.Run under the root span.
func (s *stageSpans) start(root int) {
	s.root, s.cur, s.since = root, "calibrate", time.Now()
}

func (s *stageSpans) observe(ev tscfp.Event) {
	next := string(ev.Stage)
	if next == s.cur {
		return
	}
	now := time.Now()
	s.tr.record(s.root, s.trace, "tscfp."+stageMetric(s.cur), s.since, now, 0)
	s.dur[s.cur] += now.Sub(s.since).Seconds()
	switch {
	case next == string(tscfp.StageAnneal):
		runtime.ReadMemStats(&s.m0)
	case s.cur == string(tscfp.StageAnneal):
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.annealMallocs = m1.Mallocs - s.m0.Mallocs
		s.annealBytes = m1.TotalAlloc - s.m0.TotalAlloc
	}
	s.cur, s.since = next, now
}
