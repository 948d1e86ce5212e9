package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/tscfp"
)

// testJobBody is a small n100-class submission (tiny grid, short anneal)
// whose flow completes in well under a second.
const testJobBody = `{
	"benchmark": "n100",
	"options": {"mode": "tsc", "seed": 42, "iterations": 100, "grid_n": 12,
	            "activity_samples": 4, "max_dummy_groups": 2}
}`

// testRunOptions mirrors testJobBody for in-process reference runs.
var testRunOptions = tscfp.RunOptions{
	Mode: "tsc", Seed: 42, Iterations: 100, GridN: 12,
	ActivitySamples: 4, MaxDummyGroups: 2,
}

// newTestServer starts a server over a disk-backed registry rooted at dir,
// plus its HTTP front end, and stops both at test cleanup. Restart tests
// pass the same dir to a second server after stopping the first.
func newTestServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = reg
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { stopServer(s, ts) })
	return s, ts
}

// stopServer drains s and closes its front end. Both steps are idempotent,
// so a test may stop a server early and leave the cleanup to repeat it.
func stopServer(s *Server, ts *httptest.Server) {
	s.Drain(300 * time.Millisecond)
	ts.Close()
}

func submit(t *testing.T, ts *httptest.Server, body string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submission response: %v", err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return st
}

// followSSE consumes a job's event stream until the terminal state event,
// returning every received event in order.
func followSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "state" {
					var st JobStatus
					if err := json.Unmarshal(cur.data, &st); err != nil {
						t.Fatalf("bad state event %q: %v", cur.data, err)
					}
					if st.State.Terminal() {
						return events
					}
				}
			}
			cur = sseEvent{}
		}
	}
	t.Fatalf("SSE stream ended without a terminal state event (%d events)", len(events))
	return nil
}

// decodeResult fetches and decodes a completed job's Result.
func decodeResult(t *testing.T, ts *httptest.Server, id string) *tscfp.Result {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	res, err := tscfp.ReadResult(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEndToEndSingleJob is the acceptance path: a job submitted over HTTP
// completes with SSE progress events in stage order, its Result matches an
// in-process run with the same seed, a duplicate submission dedupes to the
// same artifact with lineage, and /metrics reflects all of it.
func TestEndToEndSingleJob(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 2, QueueCap: 8})

	st, resp := submit(t, ts, testJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	events := followSSE(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s (error %q)", final.State, final.Error)
	}
	if final.ArtifactID == "" || final.Deduped {
		t.Fatalf("first run should produce a fresh artifact, got %+v", final)
	}

	// Progress stages must appear in flow order. The replay coalesces
	// within a stage, never across stages, so first-appearance order is the
	// emission order.
	wantOrder := []tscfp.Stage{
		tscfp.StageAnneal, tscfp.StageFinalize, tscfp.StageSampling,
		tscfp.StagePostProcess, tscfp.StageDone,
	}
	var stages []tscfp.Stage
	seen := map[tscfp.Stage]bool{}
	for _, ev := range events {
		if ev.name != "progress" {
			continue
		}
		var pe tscfp.Event
		if err := json.Unmarshal(ev.data, &pe); err != nil {
			t.Fatalf("bad progress event %q: %v", ev.data, err)
		}
		if !seen[pe.Stage] {
			seen[pe.Stage] = true
			stages = append(stages, pe.Stage)
		}
	}
	if fmt.Sprint(stages) != fmt.Sprint(wantOrder) {
		t.Fatalf("progress stages = %v, want %v", stages, wantOrder)
	}

	// The served Result must match an in-process run bit-for-bit (runtime
	// aside) — same seed, same options, same determinism contract.
	got := decodeResult(t, ts, st.ID)
	opts, err := testRunOptions.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tscfp.Run(context.Background(), tscfp.MustBenchmark("n100"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	got.Metrics.RuntimeSec, want.Metrics.RuntimeSec = 0, 0
	gotJSON, _ := got.JSON()
	wantJSON, _ := want.JSON()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served result differs from in-process run (%d vs %d bytes)",
			len(gotJSON), len(wantJSON))
	}

	// Duplicate submission: no run, same artifact, lineage to the producer.
	st2, resp2 := submit(t, ts, testJobBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit status = %d", resp2.StatusCode)
	}
	if !st2.Deduped || st2.State != StateDone {
		t.Fatalf("duplicate should dedupe, got %+v", st2)
	}
	if st2.ArtifactID != final.ArtifactID {
		t.Fatalf("dedupe artifact %s != original %s", st2.ArtifactID, final.ArtifactID)
	}
	if st2.LineageJob != final.ID {
		t.Fatalf("dedupe lineage %s != producing job %s", st2.LineageJob, final.ID)
	}
	// The deduped job's SSE stream still serves a terminal state replay.
	dedupeEvents := followSSE(t, ts, st2.ID)
	if len(dedupeEvents) == 0 {
		t.Fatal("deduped job produced no SSE events")
	}

	// A semantically identical submission spelled differently (full mode
	// name, explicit design instead of benchmark) hits the same artifact.
	design, _ := json.Marshal(tscfp.MustBenchmark("n100"))
	alt := fmt.Sprintf(`{"design": %s, "options": {"mode": "tsc-aware", "seed": 42,
		"iterations": 100, "grid_n": 12, "activity_samples": 4, "max_dummy_groups": 2}}`, design)
	st3, resp3 := submit(t, ts, alt)
	if resp3.StatusCode != http.StatusOK || st3.ArtifactID != final.ArtifactID {
		t.Fatalf("inline-design duplicate should hit the same artifact: status %d, %+v",
			resp3.StatusCode, st3)
	}

	metrics := fetch(t, ts, "/metrics")
	for _, want := range []string{
		"tscfpd_jobs_completed_total 1",
		"tscfpd_jobs_deduped_total 2",
		`tscfpd_stage_latency_seconds_count{stage="anneal"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSweepJob runs a 2-seed sweep, checks the manifest, and verifies that
// a later single-run submission of one cell dedupes against the artifact
// the sweep stored for that cell.
func TestSweepJob(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 1, QueueCap: 8})

	body := `{
		"benchmark": "n100",
		"options": {"mode": "tsc", "iterations": 80, "grid_n": 12,
		            "activity_samples": 2, "max_dummy_groups": 1},
		"sweep": {"seeds": [1, 2]}
	}`
	st, resp := submit(t, ts, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	events := followSSE(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("sweep state = %s (error %q)", final.State, final.Error)
	}

	cellEvents := 0
	for _, ev := range events {
		if ev.name == "cell" {
			cellEvents++
		}
	}
	if cellEvents != 2 {
		t.Fatalf("saw %d cell events, want 2", cellEvents)
	}

	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var manifest sweepManifest
	if err := json.NewDecoder(resp2.Body).Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Cells) != 2 {
		t.Fatalf("manifest has %d cells, want 2", len(manifest.Cells))
	}
	for _, c := range manifest.Cells {
		if c.Artifact == "" || c.Error != "" {
			t.Fatalf("bad manifest cell %+v", c)
		}
	}
	if manifest.Cells[0].Artifact == manifest.Cells[1].Artifact {
		t.Fatal("different seeds produced the same artifact ID")
	}

	// Submitting cell 0 (seed 1) as a single run must hit the sweep's
	// stored artifact, with lineage back to the sweep job.
	single := `{
		"benchmark": "n100",
		"options": {"mode": "tsc", "seed": 1, "iterations": 80, "grid_n": 12,
		            "activity_samples": 2, "max_dummy_groups": 1}
	}`
	st2, resp3 := submit(t, ts, single)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("cell resubmit status = %d, want dedupe hit", resp3.StatusCode)
	}
	if st2.ArtifactID != manifest.Cells[0].Artifact || st2.LineageJob != st.ID {
		t.Fatalf("cell dedupe = %+v, want artifact %s from job %s",
			st2, manifest.Cells[0].Artifact, st.ID)
	}
}

// TestReplicaJob runs a 2-replica job end to end over HTTP: the job
// completes with SSE progress, its Result carries the repl_* stats and
// matches an in-process run with the same replica count, and the dedupe
// key treats the serial spellings ("replicas": 1 vs omitted) as the same
// submission while keeping the 2-replica artifact distinct.
func TestReplicaJob(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 1, QueueCap: 8})

	body := `{
		"benchmark": "n100",
		"options": {"mode": "tsc", "seed": 42, "iterations": 100, "grid_n": 12,
		            "activity_samples": 4, "max_dummy_groups": 2,
		            "replicas": 2}
	}`
	st, resp := submit(t, ts, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	followSSE(t, ts, st.ID)
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("replica job state = %s (error %q)", final.State, final.Error)
	}
	got := decodeResult(t, ts, st.ID)
	if got.Stats.ReplicaCount != 2 {
		t.Fatalf("served result missing replica stats: %+v", got.Stats)
	}

	ro := testRunOptions
	ro.Replicas = 2
	opts, err := ro.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tscfp.Run(context.Background(), tscfp.MustBenchmark("n100"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	got.Metrics.RuntimeSec, want.Metrics.RuntimeSec = 0, 0
	gotJSON, _ := got.JSON()
	wantJSON, _ := want.JSON()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served replica result differs from in-process run (%d vs %d bytes)",
			len(gotJSON), len(wantJSON))
	}

	// Serial baseline, then the explicit "replicas": 1 spelling: Canonical
	// normalizes 1 to 0, so the spelling must dedupe against the serial
	// artifact — and not against the 2-replica one.
	stSerial, respSerial := submit(t, ts, testJobBody)
	if respSerial.StatusCode != http.StatusCreated {
		t.Fatalf("serial submit status = %d", respSerial.StatusCode)
	}
	followSSE(t, ts, stSerial.ID)
	finalSerial := getStatus(t, ts, stSerial.ID)
	if finalSerial.State != StateDone {
		t.Fatalf("serial job state = %s", finalSerial.State)
	}
	if finalSerial.ArtifactID == final.ArtifactID {
		t.Fatal("serial and 2-replica runs content-addressed identically")
	}
	one := strings.Replace(testJobBody, `"max_dummy_groups": 2`,
		`"max_dummy_groups": 2, "replicas": 1`, 1)
	st2, resp2 := submit(t, ts, one)
	if resp2.StatusCode != http.StatusOK || !st2.Deduped {
		t.Fatalf("replicas=1 spelling did not dedupe: status %d, %+v", resp2.StatusCode, st2)
	}
	if st2.ArtifactID != finalSerial.ArtifactID {
		t.Fatalf("replicas=1 deduped to %s, want the serial artifact %s",
			st2.ArtifactID, finalSerial.ArtifactID)
	}
}

// TestNewRequiresStore: the registry is the only artifact store, so a
// Config without one is a programming error New reports by field name.
func TestNewRequiresStore(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Config.Store") {
			t.Fatalf("New without a Store: recovered %v, want a panic naming Config.Store", r)
		}
	}()
	New(Config{})
}

// TestContentKeyStable pins the content address of testJobBody. Registry
// artifacts are stored under this key, so a change to the RunOptions wire
// shape (such as dropping a retired omitempty field) must not move it.
func TestContentKeyStable(t *testing.T) {
	var req JobRequest
	if err := json.Unmarshal([]byte(testJobBody), &req); err != nil {
		t.Fatal(err)
	}
	design, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := contentKey(design, req.Options, req.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	const want = "sha256:c3b54a0e4aae4171bc3caa27aac872cb12c8faa4cf20954bae3ab0afb42be1bb"
	if key != want {
		t.Fatalf("content key of testJobBody = %s, want %s", key, want)
	}
}

// TestCancelRunningJob cancels a long-running job via DELETE and expects a
// prompt cancelled state.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 1, QueueCap: 8})

	body := `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`
	st, _ := submit(t, ts, body)
	waitState(t, ts, st.ID, StateRunning)

	cancelJob(t, ts, st.ID)
	waitState(t, ts, st.ID, StateCancelled)
}

// TestCancelQueuedJob cancels a job that is still waiting behind a blocker
// and expects it to finalize without ever running.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 1, QueueCap: 8})

	blocker, _ := submit(t, ts, `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`)
	waitState(t, ts, blocker.ID, StateRunning)
	queued, _ := submit(t, ts, testJobBody)

	cancelJob(t, ts, queued.ID)
	st := getStatus(t, ts, queued.ID)
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s", st.State)
	}
	if st.Started != nil {
		t.Fatalf("cancelled-while-queued job should never start, got %+v", st)
	}
}

// TestQueueBoundsAndValidation exercises admission control: a full queue
// returns 503 with Retry-After, and malformed submissions return 400/413.
func TestQueueBoundsAndValidation(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 1, QueueCap: 1, MaxBodyBytes: 4096})

	blocker, _ := submit(t, ts, `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`)
	waitState(t, ts, blocker.ID, StateRunning)
	if _, resp := submit(t, ts, testJobBody); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first queued submit = %d", resp.StatusCode)
	}
	_, resp := submit(t, ts, `{"benchmark": "n100", "options": {"seed": 99}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	for name, body := range map[string]string{
		"unknown benchmark":    `{"benchmark": "n9000"}`,
		"no design":            `{"options": {"seed": 1}}`,
		"benchmark and design": `{"benchmark": "n100", "design": {"name": "x"}}`,
		"bad mode":             `{"benchmark": "n100", "options": {"mode": "fast"}}`,
		"bad criterion":        `{"benchmark": "n100", "options": {"post_criterion": "top"}}`,
		"negative iterations":  `{"benchmark": "n100", "options": {"iterations": -1}}`,
		"unknown field":        `{"benchmark": "n100", "bogus": 1}`,
		"retired speculation":  `{"benchmark": "n100", "options": {"speculation": 2}}`,
		"truncated":            `{"benchmark": "n1`,
		"zero modules": `{"design": {"name": "x", "dies": 2, "outline_w_um": 100, "outline_h_um": 100,
			"modules": [], "nets": []}}`,
		"module larger than the outline": `{"design": {"name": "x", "dies": 2, "outline_w_um": 10, "outline_h_um": 10,
			"modules": [{"name": "a", "kind": "hard", "w_um": 1000000, "h_um": 5, "power_w": 1},
				{"name": "b", "kind": "hard", "w_um": 5, "h_um": 5, "power_w": 1}],
			"nets": [{"name": "n", "modules": [0, 1]}]}}`,
	} {
		if _, resp := submit(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	big := fmt.Sprintf(`{"benchmark": "n100", "options": {"protected_modules": [%s1]}}`,
		strings.Repeat("1,", 4096))
	if _, resp := submit(t, ts, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestDrain is the shutdown acceptance path: during drain /readyz flips to
// 503 and admission stops; a long-running job is cancelled within the
// deadline; and after drain no server goroutine survives.
func TestDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	s, ts := newTestServer(t, t.TempDir(), Config{Workers: 2, QueueCap: 8})

	if body := fetch(t, ts, "/readyz"); !strings.Contains(body, "ready") {
		t.Fatalf("readyz before drain = %q", body)
	}
	st, _ := submit(t, ts, `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`)
	waitState(t, ts, st.ID, StateRunning)

	start := time.Now()
	s.Drain(250 * time.Millisecond)
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("drain took %s, deadline was 250ms", e)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	if _, resp := submit(t, ts, testJobBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
	if got := getStatus(t, ts, st.ID); got.State != StateCancelled {
		t.Fatalf("in-flight job after drain = %s, want cancelled", got.State)
	}

	ts.Close()
	waitGoroutines(t, before)
}

// cancelJob issues DELETE /v1/jobs/{id}.
func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
}

// waitState polls a job until it reaches want (or any terminal state).
func waitState(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state = %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetch(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// waitGoroutines asserts the goroutine count returns to the baseline —
// workers, SSE fanout, and flow goroutines must all exit after drain.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
