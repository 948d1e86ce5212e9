package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/tscfp"
)

func fetchArtifact(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s status = %d", id, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestartDurability is the restart acceptance path: a job submitted and
// completed before shutdown is served from disk by a fresh daemon on the
// same data dir — byte-identical payload, deduped:true with the original
// job's lineage, and no recompute (the second instance never runs a flow).
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, dir, Config{Workers: 1, QueueCap: 8})
	st, resp := submit(t, ts1, testJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	followSSE(t, ts1, st.ID)
	final := getStatus(t, ts1, st.ID)
	if final.State != StateDone || final.Deduped {
		t.Fatalf("producing job = %+v", final)
	}
	payload := fetchArtifact(t, ts1, final.ArtifactID)
	stopServer(s1, ts1) // graceful drain + listener close: the "SIGTERM" half

	_, ts2 := newTestServer(t, dir, Config{Workers: 1, QueueCap: 8})
	st2, resp2 := submit(t, ts2, testJobBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart submit status = %d, want 200 dedupe", resp2.StatusCode)
	}
	if !st2.Deduped || st2.State != StateDone {
		t.Fatalf("post-restart submission did not dedupe: %+v", st2)
	}
	if st2.ArtifactID != final.ArtifactID {
		t.Fatalf("artifact %s != pre-restart %s", st2.ArtifactID, final.ArtifactID)
	}
	if st2.LineageJob != final.ID {
		t.Fatalf("lineage %s != original producing job %s", st2.LineageJob, final.ID)
	}
	// The restarted daemon must not reuse the producer's job ID for the new
	// record — lineage would then point at the deduped job itself.
	if st2.ID == final.ID {
		t.Fatalf("restarted daemon reused job ID %s", st2.ID)
	}
	if got := fetchArtifact(t, ts2, st2.ArtifactID); !bytes.Equal(got, payload) {
		t.Fatalf("post-restart payload differs: %d vs %d bytes", len(got), len(payload))
	}
	// No recompute: the second instance completed zero runs, and the store
	// rescan shows up in /metrics.
	metrics := fetch(t, ts2, "/metrics")
	for _, want := range []string{
		"tscfpd_jobs_completed_total 0",
		"tscfpd_jobs_deduped_total 1",
		"tscfpd_store_rescanned_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestRestartCorruptionQuarantine: artifacts corrupted between runs
// (truncated payload, flipped bytes) are quarantined at startup — counted
// in /metrics, moved out of the data dir — and the daemon recomputes the
// job instead of serving garbage.
func TestRestartCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newTestServer(t, dir, Config{Workers: 1, QueueCap: 8})
	st, _ := submit(t, ts1, testJobBody)
	followSSE(t, ts1, st.ID)
	final := getStatus(t, ts1, st.ID)
	if final.State != StateDone {
		t.Fatalf("producing job = %+v", final)
	}
	payload := fetchArtifact(t, ts1, final.ArtifactID)
	stopServer(s1, ts1)

	// Corrupt the stored payload on disk: truncate it. (A second, fake
	// artifact with flipped bytes exercises the hash-mismatch path.)
	stem := strings.TrimPrefix(final.ArtifactID, "sha256:")
	if err := os.Truncate(filepath.Join(dir, "artifacts", stem), 3); err != nil {
		t.Fatal(err)
	}
	fakeStem := strings.Repeat("a", 64)
	if err := os.WriteFile(filepath.Join(dir, "artifacts", fakeStem), []byte("no sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, dir, Config{Workers: 1, QueueCap: 8})
	metrics := fetch(t, ts2, "/metrics")
	if !strings.Contains(metrics, "tscfpd_store_quarantined_total 2") {
		t.Fatalf("metrics missing quarantine count:\n%s", metrics)
	}
	// The submission no longer dedupes (the artifact is gone) — it runs
	// fresh and produces the same bytes, proving the server still serves.
	st2, resp2 := submit(t, ts2, testJobBody)
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("submit after quarantine = %d, want a fresh 201 run", resp2.StatusCode)
	}
	followSSE(t, ts2, st2.ID)
	final2 := getStatus(t, ts2, st2.ID)
	if final2.State != StateDone || final2.Deduped {
		t.Fatalf("recompute job = %+v", final2)
	}
	got := fetchArtifact(t, ts2, final2.ArtifactID)
	// The recompute reproduces the pre-corruption result bit-for-bit
	// (runtime aside) — same seed, same determinism contract.
	gotRes, err := tscfp.ReadResult(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := tscfp.ReadResult(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	gotRes.Metrics.RuntimeSec, wantRes.Metrics.RuntimeSec = 0, 0
	gotJSON, _ := gotRes.JSON()
	wantJSON, _ := wantRes.JSON()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("recomputed result differs from pre-corruption original (%d vs %d bytes)",
			len(gotJSON), len(wantJSON))
	}
}

// TestJobTableGC bounds the job table: with MaxJobs set, terminal records
// are pruned oldest-first while queued/running jobs survive, and the GC
// shows up in /metrics.
func TestJobTableGC(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 2, QueueCap: 8, MaxJobs: 3})

	st, resp := submit(t, ts, testJobBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	followSSE(t, ts, st.ID)

	// Seven dedupe submissions: each creates a terminal-at-birth record, so
	// the table repeatedly exceeds MaxJobs=3 and prunes oldest-first.
	var last JobStatus
	for i := 0; i < 7; i++ {
		last, resp = submit(t, ts, testJobBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dedupe submit %d = %d", i, resp.StatusCode)
		}
	}
	var list struct {
		Jobs  []JobStatus `json:"jobs"`
		Total int         `json:"total"`
	}
	if err := json.Unmarshal([]byte(fetch(t, ts, "/v1/jobs")), &list); err != nil {
		t.Fatal(err)
	}
	if list.Total > 3 {
		t.Fatalf("job table holds %d records, bound is 3", list.Total)
	}
	// The newest record survived, the producer was GC'd.
	found := false
	for _, j := range list.Jobs {
		if j.ID == last.ID {
			found = true
		}
		if j.ID == st.ID {
			t.Fatalf("oldest terminal job %s survived GC", st.ID)
		}
	}
	if !found {
		t.Fatalf("newest job %s missing from list %+v", last.ID, list.Jobs)
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GC'd job status = %d, want 404", resp2.StatusCode)
	}
	if m := fetch(t, ts, "/metrics"); !strings.Contains(m, "tscfpd_jobs_gced_total 5") {
		t.Fatalf("metrics missing GC count:\n%s", m)
	}
}

// TestListPagination covers ?limit=/?offset= on GET /v1/jobs: stable
// slicing over the filtered set, total reporting the pre-pagination count,
// and 400s on malformed values.
func TestListPagination(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 1, QueueCap: 8})

	st, _ := submit(t, ts, testJobBody)
	followSSE(t, ts, st.ID)
	ids := []string{st.ID}
	for i := 0; i < 4; i++ {
		d, resp := submit(t, ts, testJobBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dedupe submit = %d", resp.StatusCode)
		}
		ids = append(ids, d.ID)
	}

	page := func(query string) (got []string, total int) {
		t.Helper()
		var list struct {
			Jobs  []JobStatus `json:"jobs"`
			Total int         `json:"total"`
		}
		if err := json.Unmarshal([]byte(fetch(t, ts, "/v1/jobs"+query)), &list); err != nil {
			t.Fatal(err)
		}
		for _, j := range list.Jobs {
			got = append(got, j.ID)
		}
		return got, list.Total
	}

	if got, total := page(""); len(got) != 5 || total != 5 {
		t.Fatalf("unpaginated list = %v total %d", got, total)
	}
	if got, total := page("?limit=2"); fmt.Sprint(got) != fmt.Sprint(ids[:2]) || total != 5 {
		t.Fatalf("limit=2 = %v total %d, want %v", got, total, ids[:2])
	}
	if got, _ := page("?offset=3"); fmt.Sprint(got) != fmt.Sprint(ids[3:]) {
		t.Fatalf("offset=3 = %v, want %v", got, ids[3:])
	}
	if got, _ := page("?offset=1&limit=2"); fmt.Sprint(got) != fmt.Sprint(ids[1:3]) {
		t.Fatalf("offset=1&limit=2 = %v, want %v", got, ids[1:3])
	}
	if got, total := page("?offset=99"); len(got) != 0 || total != 5 {
		t.Fatalf("past-the-end offset = %v total %d", got, total)
	}
	if got, _ := page("?limit=0"); len(got) != 0 {
		t.Fatalf("limit=0 = %v, want empty page", got)
	}
	for _, q := range []string{"?limit=-1", "?limit=x", "?offset=-2", "?offset=1.5"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSSEKeepAlive: an idle event stream (a queued job stuck behind a
// blocker emits nothing) carries ": keepalive" comment frames so proxies
// do not sever it, and the stream still delivers the real terminal event.
func TestSSEKeepAlive(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 1, QueueCap: 8, SSEKeepAlive: 20 * time.Millisecond})

	blocker, _ := submit(t, ts, `{"benchmark": "n100", "options": {"iterations": 100000000, "grid_n": 12}}`)
	waitState(t, ts, blocker.ID, StateRunning)
	queued, _ := submit(t, ts, testJobBody)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type lineOrErr struct {
		line string
		err  error
	}
	lines := make(chan lineOrErr)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- lineOrErr{line: sc.Text()}
		}
		lines <- lineOrErr{err: errors.New("stream ended")}
	}()

	keepalives := 0
	deadline := time.After(5 * time.Second)
	for keepalives < 3 {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatalf("stream ended after %d keepalives", keepalives)
			}
			if strings.HasPrefix(l.line, ": keepalive") {
				keepalives++
			} else if strings.HasPrefix(l.line, "event: ") && keepalives == 0 {
				// The queued job has no events yet; nothing should precede
				// the keepalives except blank separators.
				t.Fatalf("unexpected event on idle stream: %q", l.line)
			}
		case <-deadline:
			t.Fatalf("saw only %d keepalive frames on an idle stream", keepalives)
		}
	}

	// Cancel both; the idle stream must still deliver a terminal state.
	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, blocker.ID)
	sawState := false
	deadline = time.After(5 * time.Second)
	for !sawState {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatal("stream ended without a state event")
			}
			if l.line == "event: state" {
				sawState = true
			}
		case <-deadline:
			t.Fatal("no terminal state event after cancel")
		}
	}
}

// TestSweepCellHitCounting pins the dedupe-undercount fix: cells a sweep
// serves from the store count as artifact hits and sweep-cell dedupe
// metrics, exactly like single-run dedupe hits.
func TestSweepCellHitCounting(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Config{Workers: 1, QueueCap: 8})

	body := `{
		"benchmark": "n100",
		"options": {"mode": "tsc", "iterations": 80, "grid_n": 12,
		            "activity_samples": 2, "max_dummy_groups": 1},
		"sweep": {"seeds": [1, 2]}
	}`
	st, resp := submit(t, ts, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sweep submit = %d", resp.StatusCode)
	}
	followSSE(t, ts, st.ID)
	if final := getStatus(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("sweep = %+v", final)
	}

	// A second identical sweep dedupes at admission (whole-job hit); a
	// sweep over a superset of seeds re-serves the two cached cells from
	// the store and must count both.
	super := strings.Replace(body, `"seeds": [1, 2]`, `"seeds": [1, 2, 3]`, 1)
	st2, resp2 := submit(t, ts, super)
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("superset sweep submit = %d", resp2.StatusCode)
	}
	followSSE(t, ts, st2.ID)
	if final := getStatus(t, ts, st2.ID); final.State != StateDone {
		t.Fatalf("superset sweep = %+v", final)
	}

	var manifest sweepManifest
	respM, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer respM.Body.Close()
	if err := json.NewDecoder(respM.Body).Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	deduped := 0
	for _, c := range manifest.Cells {
		if c.Deduped {
			deduped++
			a, ok := s.store.Lookup(c.Artifact)
			if !ok {
				t.Fatalf("deduped cell artifact %s missing", c.Artifact)
			}
			if a.Hits == 0 {
				t.Fatalf("sweep-served cell %s has zero hits — the undercount bug", c.Artifact)
			}
			if a.JobID != st.ID {
				t.Fatalf("cell lineage %s, want first sweep %s", a.JobID, st.ID)
			}
		}
	}
	if deduped != 2 {
		t.Fatalf("superset sweep deduped %d cells, want 2", deduped)
	}
	if m := fetch(t, ts, "/metrics"); !strings.Contains(m, "tscfpd_sweep_cells_deduped_total 2") {
		t.Fatalf("metrics missing sweep-cell dedupe count:\n%s", m)
	}
}

// errWriter fails every write, standing in for a client that hung up.
type errWriter struct {
	header http.Header
	code   int
}

func (w *errWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *errWriter) WriteHeader(code int)      { w.code = code }
func (w *errWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestWriteJSONErrorCounted: a failed response write is detected and
// counted instead of silently dropped.
func TestWriteJSONErrorCounted(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir(), Config{Workers: 1})
	s.writeJSON(&errWriter{}, http.StatusOK, map[string]int{"x": 1})
	s.metrics.mu.Lock()
	n := s.metrics.writeErrors
	s.metrics.mu.Unlock()
	if n != 1 {
		t.Fatalf("writeErrors = %d, want 1", n)
	}
}
