package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/tscfp"
)

// mixOp is one kind of client operation and how often it occurs in a
// block of the job stream.
type mixOp struct {
	Design int  // index into mixWorkload.Designs
	New    bool // a new job; otherwise a resubmission of an earlier one
	Count  int
}

// mixWorkload drives an in-process tscfpd — server.New over a disk-backed
// registry.Open, the daemon's -data-dir set-up — through httptest with a
// closed loop of clients. Each client works through Blocks blocks of a
// seeded stream; a block holds the Block operations in a seeded order.
type mixWorkload struct {
	Designs []string
	Block   []mixOp
	// Iterations, GridN and Samples are every job's flow budget.
	Iterations, GridN, Samples int
	Clients, Workers           int
	// Blocks is the fixed number of blocks per client. It does not depend
	// on how fast the service is, so every run of the benchmark submits the
	// same jobs.
	Blocks int
	// Rechecks new jobs of Designs[RecheckDesign] are re-run with the
	// library after the timed loop: their served artifacts must match
	// byte for byte, and their best annealing cost is best_cost.
	Rechecks, RecheckDesign int
	SetupReps               int
}

// serviceMix is the service workload. Each block holds one new job and two
// resubmissions of earlier jobs per design. 9 blocks of 6 jobs for each of
// 2 clients make 108 timed jobs, 10 of them beyond the p90.
//
// The stream is not split in equal halves: with as many resubmissions as
// new jobs, the job-latency median is the slowest resubmission, a tail
// figure that did not hold its bound. With two resubmissions per new job
// the median falls inside the ibm01 resubmissions (admission cost) and the
// p90 inside the new jobs (queue and run).
var serviceMix = mixWorkload{
	Designs: []string{"n100", "ibm01"},
	Block: []mixOp{
		{Design: 0, New: true, Count: 1},
		{Design: 1, New: true, Count: 1},
		{Design: 0, New: false, Count: 2},
		{Design: 1, New: false, Count: 2},
	},
	Iterations: 150, GridN: 16, Samples: 10,
	Clients: 2, Workers: 1, Blocks: 9,
	Rechecks: 3, RecheckDesign: 1,
	SetupReps: 30,
}

// flowServicePass is the small service session a flow workload's traced
// run makes with its own design: two blocks of two new jobs and two
// resubmissions, one client.
func flowServicePass(design string) mixWorkload {
	return mixWorkload{
		Designs:    []string{design},
		Block:      []mixOp{{Design: 0, New: true, Count: 2}, {Design: 0, New: false, Count: 2}},
		Iterations: 150, GridN: 16, Samples: 10,
		Clients: 1, Workers: 1, Blocks: 2,
		SetupReps: 1,
	}
}

// jobOptions are the run options of one job.
func (w mixWorkload) jobOptions(seed int64) tscfp.RunOptions {
	return tscfp.RunOptions{
		Mode: string(tscfp.TSCAware), Seed: seed,
		Iterations: w.Iterations, GridN: w.GridN, ActivitySamples: w.Samples,
	}
}

// service is one started tscfpd with its registry directory.
type service struct {
	dir     string
	reg     *registry.Registry
	srv     *server.Server
	ts      *httptest.Server
	designs []*tscfp.Design
}

// start synthesizes the designs and brings up a registry, a server and
// its HTTP listener: everything set-up time is charged with.
func (w mixWorkload) start(workDir string) (*service, error) {
	s := &service{}
	for _, name := range w.Designs {
		d, err := tscfp.Benchmark(name)
		if err != nil {
			return nil, err
		}
		s.designs = append(s.designs, d)
	}
	dir, err := os.MkdirTemp(workDir, "registry-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	if s.reg, err = registry.Open(registry.Config{Dir: dir}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = server.New(server.Config{Workers: w.Workers, Store: s.reg})
	s.srv.Start()
	s.ts = httptest.NewServer(s.srv.Handler())
	return s, nil
}

// close stops the listener and the workers and removes the registry.
func (s *service) close() {
	s.ts.Close()
	s.srv.Drain(time.Minute)
	os.RemoveAll(s.dir)
}

// setup starts the service SetupReps times, keeping the last, and returns
// it with the median start-up time.
func (w mixWorkload) setup(workDir string) (*service, float64, error) {
	var times []float64
	var svc *service
	for rep := 0; rep < max(1, w.SetupReps); rep++ {
		if svc != nil {
			svc.close()
		}
		runtime.GC() // each round starts from a collected heap, untimed
		t0 := time.Now()
		s, err := w.start(workDir)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		svc = s
	}
	return svc, median(times), nil
}

// jobRecord is one client operation: submit, wait for done, fetch.
type jobRecord struct {
	design  int
	isNew   bool
	seed    int64
	jobID   string
	art     string
	payload []byte
	res     *tscfp.Result

	admit, fetch, latency time.Duration // client side
	queue, run            time.Duration // server side, from the job status
}

// client is one closed-loop caller with its own seeded stream.
type client struct {
	id   int
	w    mixWorkload
	base string
	hc   *http.Client
	rng  *rand.Rand
	tr   *tracer
	seed int64          // next new job's flow seed
	pool [][]*jobRecord // this client's completed new jobs, per design
	ops  int
}

func (w mixWorkload) newClient(id int, seed int64, svc *service, tr *tracer) *client {
	return &client{
		id: id, w: w, base: svc.ts.URL, hc: svc.ts.Client(), tr: tr,
		rng: rand.New(rand.NewSource(seed*7919 + int64(id))),
		// Distinct per client and per run, so a "new" job never dedupes.
		seed: (seed&0xffffff)<<24 | int64(id)<<20,
		pool: make([][]*jobRecord, len(w.Designs)),
	}
}

// block returns the next block of operations in the client's order.
func (c *client) block() []mixOp {
	var ops []mixOp
	for _, op := range c.w.Block {
		for i := 0; i < op.Count; i++ {
			ops = append(ops, op)
		}
	}
	c.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// do performs one operation and checks the service's replies. Decoding
// the artifact is left to decode, so that it can run outside the timed
// loop instead of competing with the service for the CPU.
func (c *client) do(op mixOp) (*jobRecord, error) {
	rec := &jobRecord{design: op.Design, isNew: op.New}
	var orig *jobRecord
	if op.New {
		rec.seed = c.seed
		c.seed++
	} else {
		pool := c.pool[op.Design]
		orig = pool[c.rng.Intn(len(pool))]
		rec.seed = orig.seed
	}
	c.ops++
	body, err := json.Marshal(server.JobRequest{
		Benchmark: c.w.Designs[op.Design],
		Options:   c.w.jobOptions(rec.seed),
	})
	if err != nil {
		return nil, err
	}
	trace := fmt.Sprintf("job-c%d-%d", c.id, c.ops)
	root, end := c.tr.begin(0, trace, "job")
	defer end()

	t0 := time.Now()
	var st server.JobStatus
	want := http.StatusCreated
	if !op.New {
		want = http.StatusOK
	}
	if err := c.call(http.MethodPost, "/v1/jobs", body, want, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	}); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	rec.admit = time.Since(t0)
	c.tr.record(root, trace, "http.submit", t0, t0.Add(rec.admit), 1)
	rec.jobID = st.ID

	if op.New {
		if st.Deduped {
			return nil, fmt.Errorf("new job %s (seed %d) was deduped", st.ID, rec.seed)
		}
		t1 := time.Now()
		if st, err = c.waitDone(st.ID); err != nil {
			return nil, err
		}
		c.tr.record(root, trace, "http.wait", t1, time.Now(), 1)
	} else if !st.Deduped || st.ArtifactID != orig.art || st.LineageJob != orig.jobID {
		return nil, fmt.Errorf("resubmission %s of %s: deduped=%v artifact %q lineage %q, want the original %q",
			st.ID, orig.jobID, st.Deduped, st.ArtifactID, st.LineageJob, orig.art)
	}
	if st.State != server.StateDone || st.ArtifactID == "" {
		return nil, fmt.Errorf("job %s ended %s (%s)", st.ID, st.State, st.Error)
	}
	rec.art = st.ArtifactID

	t2 := time.Now()
	if err := c.call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, func(r io.Reader) error {
		rec.payload, err = io.ReadAll(r)
		return err
	}); err != nil {
		return nil, fmt.Errorf("fetch %s: %w", st.ID, err)
	}
	now := time.Now()
	rec.fetch, rec.latency = now.Sub(t2), now.Sub(t0)
	c.tr.record(root, trace, "http.fetch", t2, now, 1)

	if orig != nil && !bytes.Equal(rec.payload, orig.payload) {
		return nil, fmt.Errorf("resubmission %s served different bytes than %s", st.ID, orig.jobID)
	}
	if op.New {
		if st.Started == nil || st.Finished == nil {
			return nil, fmt.Errorf("job %s is done without start/finish times", st.ID)
		}
		rec.queue, rec.run = st.Started.Sub(st.Submitted), st.Finished.Sub(*st.Started)
		c.tr.record(root, trace, "server.queue", st.Submitted, *st.Started, 1)
		c.tr.record(root, trace, "server.run", *st.Started, *st.Finished, 1)
		c.pool[op.Design] = append(c.pool[op.Design], rec)
	}
	return rec, nil
}

// decode checks that the job's artifact decodes and validates through
// tscfp.ReadResult.
func (r *jobRecord) decode() error {
	var err error
	if r.res, err = tscfp.ReadResult(bytes.NewReader(r.payload)); err != nil {
		return fmt.Errorf("job %s artifact: %w", r.jobID, err)
	}
	return nil
}

// call performs one HTTP request; any status but want is a failure.
func (c *client) call(method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(msg)))
	}
	return read(resp.Body)
}

// waitDone follows the job's event stream until the server closes it and
// returns the last job state the stream carried.
func (c *client) waitDone(id string) (server.JobStatus, error) {
	var last server.JobStatus
	err := c.call(http.MethodGet, "/v1/jobs/"+id+"/events", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "state":
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
					return err
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		return last, fmt.Errorf("events %s: %w", id, err)
	}
	return last, nil
}

// session runs the warm-up (one new job per design and client, untimed,
// which also gives every client something to resubmit) and then the
// clients' closed loops. It returns the timed operations' records, the
// loop's wall time and the bytes it allocated.
func (w mixWorkload) session(cfg runConfig, tr *tracer, out *report, svc *service) ([]*jobRecord, float64, float64) {
	clients := make([]*client, w.Clients)
	for i := range clients {
		clients[i] = w.newClient(i, cfg.Seed, svc, tr)
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range w.Designs {
				rec, err := c.do(mixOp{Design: d, New: true})
				if err == nil {
					err = rec.decode()
				}
				out.op(err)
			}
		}()
	}
	wg.Wait()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	type outcome struct {
		rec *jobRecord
		err error
	}
	done := make([][]outcome, len(clients))
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < w.Blocks; b++ {
				for _, op := range c.block() {
					if len(c.pool[op.Design]) == 0 && !op.New {
						continue // warm-up failed for this design
					}
					rec, err := c.do(op)
					done[i] = append(done[i], outcome{rec, err})
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	var all []*jobRecord
	for _, outs := range done {
		for _, o := range outs {
			err := o.err
			if err == nil {
				err = o.rec.decode()
			}
			out.op(err)
			if err == nil {
				all = append(all, o.rec)
			}
		}
	}
	return all, elapsed, float64(m1.TotalAlloc - m0.TotalAlloc)
}

// seconds converts durations picked by f to seconds.
func seconds(recs []*jobRecord, keep func(*jobRecord) bool, f func(*jobRecord) time.Duration) []float64 {
	var out []float64
	for _, r := range recs {
		if keep(r) {
			out = append(out, f(r).Seconds())
		}
	}
	return out
}

func isNew(r *jobRecord) bool   { return r.isNew }
func isResub(r *jobRecord) bool { return !r.isNew }
func anyJob(r *jobRecord) bool  { return true }

func (w mixWorkload) run(cfg runConfig, tr *tracer, out *report) error {
	if cfg.Trace {
		payloads, err := w.traced(cfg, tr, out)
		if err != nil {
			return err
		}
		d, err := tscfp.Benchmark(w.Designs[w.RecheckDesign])
		if err != nil {
			return err
		}
		seed := flowSeeds(cfg.Seed, 1)[0]
		opts, err := w.jobOptions(seed).Options()
		if err != nil {
			return err
		}
		if err := traceFlow(tr, out, d, opts, seed); err != nil {
			return err
		}
		return traceRegistry(tr, out, cfg.WorkDir, payloads)
	}

	svc, setupS, err := w.setup(cfg.WorkDir)
	if err != nil {
		return err
	}
	defer svc.close()
	recs, elapsed, allocB := w.session(cfg, nil, out, svc)
	if len(recs) == 0 {
		return fmt.Errorf("no job completed")
	}

	// The timed loop's new jobs are a fixed set for a given seed (whole
	// blocks, a fixed number of them), so their mean |R1| is exact.
	var r1 []float64
	for _, r := range recs {
		if r.isNew {
			r1 = append(r1, math.Abs(r.res.Metrics.R1))
		}
	}
	best, err := w.recheck(svc, recs, out)
	if err != nil {
		return err
	}
	lat := seconds(recs, anyJob, func(r *jobRecord) time.Duration { return r.latency })
	p50, p90 := percentile(lat, 0.5), percentile(lat, 0.9)
	runs := seconds(recs, isNew, func(r *jobRecord) time.Duration { return r.run })
	out.note("service: %d jobs (%d new) in %.1fs; job_p50 over n=%d, job_p90 over n=%d (%d beyond it); flow_s over n=%d runs; best_cost over %d rechecks",
		len(recs), len(runs), elapsed, p50.N, p90.N, p90.N-int(math.Ceil(0.9*float64(p90.N))), len(runs), len(best))
	out.set("setup_s", "s", setupS)
	// A mean, not a median: half the new jobs are n100 and half ibm01, so
	// the median would fall between the two designs' run times.
	out.set("flow_s", "s", mean(runs))
	out.set("best_cost", "cost", mean(best))
	out.set("r1_abs", "corr", mean(r1))
	out.set("alloc_mb", "MB", allocB/float64(len(recs))/1e6)
	out.set("job_p50_s", "s", p50.Value)
	out.set("job_p90_s", "s", p90.Value)
	out.set("jobs_per_s", "1/s", float64(len(recs))/elapsed)
	return nil
}

// recheck re-runs the first Rechecks new jobs of the recheck design (in
// the first client's order) with the library, checks that the service
// served exactly those results, and returns their best annealing costs.
func (w mixWorkload) recheck(svc *service, recs []*jobRecord, out *report) ([]float64, error) {
	var best []float64
	for _, r := range recs {
		if len(best) == w.Rechecks {
			break
		}
		if !r.isNew || r.design != w.RecheckDesign {
			continue
		}
		opts, err := w.jobOptions(r.seed).Options()
		if err != nil {
			return nil, err
		}
		res, err := tscfp.Run(context.Background(), svc.designs[r.design], opts...)
		if err == nil {
			var local, served []byte
			if local, err = canonicalJSON(res); err == nil {
				if served, err = canonicalJSON(r.res); err == nil && !bytes.Equal(local, served) {
					err = fmt.Errorf("job %s: served artifact differs from the library's result for seed %d", r.jobID, r.seed)
				}
			}
		}
		out.op(err)
		if err == nil {
			best = append(best, res.Core().EvalStats.AnnealBestCost)
		}
	}
	return best, nil
}

// traced runs a session with spans on and reports the server metrics; it
// returns the distinct artifact payloads for the registry measurements.
func (w mixWorkload) traced(cfg runConfig, tr *tracer, out *report) ([][]byte, error) {
	svc, err := w.start(cfg.WorkDir)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	recs, _, _ := w.session(cfg, tr, out, svc)
	if len(recs) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	ms := func(xs []float64) float64 { return 1e3 * median(xs) }
	admitNew := seconds(recs, isNew, func(r *jobRecord) time.Duration { return r.admit })
	admitDup := seconds(recs, isResub, func(r *jobRecord) time.Duration { return r.admit })
	queue := seconds(recs, isNew, func(r *jobRecord) time.Duration { return r.queue })
	out.set("server.admit_new_p50_ms", "ms", ms(admitNew))
	out.set("server.admit_dedupe_p50_ms", "ms", ms(admitDup))
	out.set("server.queue_wait_p50_s", "s", percentile(queue, 0.5).Value)
	out.set("server.queue_wait_p90_s", "s", percentile(queue, 0.9).Value)
	out.set("server.run_p50_s", "s", percentile(seconds(recs, isNew, func(r *jobRecord) time.Duration { return r.run }), 0.5).Value)
	out.set("server.artifact_get_p50_ms", "ms", ms(seconds(recs, anyJob, func(r *jobRecord) time.Duration { return r.fetch })))
	out.set("server.dedupe_frac", "frac", float64(len(admitDup))/float64(len(recs)))
	out.set("server.jobs", "count", float64(len(recs)))
	st := svc.reg.Stats()
	out.set("registry.cache_hit_frac", "frac", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	out.note("service trace: %d jobs (%d new, %d resubmitted)", len(recs), len(admitNew), len(admitDup))

	var payloads [][]byte
	for _, r := range recs {
		if r.isNew {
			payloads = append(payloads, r.payload)
		}
	}
	return payloads, nil
}

// registryCalls is how many artifacts the direct registry measurement
// writes, reads back and re-reads cold.
const registryCalls = 24

// traceRegistry times the registry's write, dedupe-hit and cold-read paths
// directly on artifact-sized payloads: Put of fresh artifacts, Hit on each,
// then Get of each from a reopened registry, whose cache starts empty.
func traceRegistry(tr *tracer, out *report, workDir string, payloads [][]byte) error {
	if len(payloads) == 0 {
		return fmt.Errorf("registry: no payloads")
	}
	dir, err := os.MkdirTemp(workDir, "registry-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	root, end := tr.begin(0, "registry", "registry")
	defer end()
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		return err
	}
	id := func(i int) string { return fmt.Sprintf("sha256:%064x", i+1) }
	timed := func(name string, fn func(i int) error) ([]float64, error) {
		var per []float64
		start := time.Now()
		for i := 0; i < registryCalls; i++ {
			t0 := time.Now()
			if err := fn(i); err != nil {
				return nil, err
			}
			per = append(per, time.Since(t0).Seconds())
		}
		tr.record(root, "registry", name, start, time.Now(), registryCalls)
		return per, nil
	}
	put, err := timed("registry.Put", func(i int) error {
		_, existed, err := reg.Put(id(i), payloads[i%len(payloads)], fmt.Sprintf("j-%06d", i+1), uint64(i+1))
		if err == nil && existed {
			err = fmt.Errorf("registry: fresh artifact %d already existed", i)
		}
		return err
	})
	if err == nil {
		var hit []float64
		hit, err = timed("registry.Hit", func(i int) error {
			if _, ok := reg.Hit(id(i)); !ok {
				return fmt.Errorf("registry: hit missed artifact %d", i)
			}
			return nil
		})
		out.set("registry.hit_ms", "ms", 1e3*median(hit))
	}
	if err == nil {
		var cold *registry.Registry
		if cold, err = registry.Open(registry.Config{Dir: dir}); err == nil {
			var get []float64
			get, err = timed("registry.Get", func(i int) error {
				data, ok := cold.Get(id(i))
				if !ok || !bytes.Equal(data, payloads[i%len(payloads)]) {
					return fmt.Errorf("registry: cold get of artifact %d returned wrong bytes", i)
				}
				return nil
			})
			out.set("registry.get_cold_ms", "ms", 1e3*median(get))
		}
	}
	out.op(err)
	out.set("registry.put_ms", "ms", 1e3*median(put))
	return nil
}
