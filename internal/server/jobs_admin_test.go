package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"just/internal/core"
	"just/internal/jobs"
	"just/internal/kv"
)

// postJobAction hits one of the POST /api/v1/admin/jobs/* endpoints and
// decodes the response into out (pass nil to ignore the body).
func postJobAction(t *testing.T, url, action string, req map[string]string, out any) int {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/api/v1/admin/jobs/"+action, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getJobsStatus(t *testing.T, url string) jobs.Status {
	t.Helper()
	resp, err := http.Get(url + "/api/v1/admin/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET admin/jobs = %d", resp.StatusCode)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func classStatus(t *testing.T, st jobs.Status, c jobs.Class) jobs.ClassStatus {
	t.Helper()
	for _, cs := range st.Classes {
		if cs.Class == c {
			return cs
		}
	}
	t.Fatalf("class %q missing from snapshot", c)
	return jobs.ClassStatus{}
}

// TestAdminJobsPanicQuarantineAndResume walks the whole operator story
// over HTTP: a misbehaving job panics, the scheduler isolates the panic
// (no crash, no leaked goroutine), quarantines the class after the
// configured failure count, the admin API reports the sick class, and
// POST resume re-admits it so a fixed job runs clean again.
func TestAdminJobsPanicQuarantineAndResume(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, err := core.Open(core.Config{
		Dir: t.TempDir(),
		// Two strikes and an hour-long cooldown: quarantine must stick
		// until the operator resumes it, not silently expire mid-test.
		Jobs:    jobs.Options{QuarantineAfter: 2, QuarantineCooldown: time.Hour},
		Cluster: kv.ClusterOptions{Options: kv.Options{DisableWAL: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Options{})
	ts := httptest.NewServer(s.Handler())

	// The rebalance class has no jobs in a standalone engine, so
	// quarantining it cannot interfere with the built-in maintenance.
	var broken atomic.Bool
	broken.Store(true)
	err = eng.Jobs().Register(jobs.Spec{
		Name:  "test-flaky",
		Class: jobs.ClassRebalance,
		Retry: &jobs.RetryPolicy{MaxAttempts: 1},
		Fn: func(ctx context.Context) error {
			if broken.Load() {
				panic("injected maintenance panic")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two panicking runs trip the quarantine threshold.
	for i := 0; i < 2; i++ {
		var resp struct {
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		}
		if code := postJobAction(t, ts.URL, "run", map[string]string{"name": "test-flaky"}, &resp); code != http.StatusOK {
			t.Fatalf("run %d status = %d", i, code)
		}
		if resp.OK || resp.Error == "" {
			t.Fatalf("run %d of panicking job = %+v, want ok=false with error", i, resp)
		}
	}

	st := getJobsStatus(t, ts.URL)
	cs := classStatus(t, st, jobs.ClassRebalance)
	if !cs.Quarantined {
		t.Fatalf("rebalance class not quarantined after %d panics: %+v", 2, cs)
	}
	if cs.Counters.Panics < 2 {
		t.Fatalf("panic counter = %d, want >= 2", cs.Counters.Panics)
	}
	if cs.Counters.Quarantined == 0 {
		t.Fatal("quarantine counter did not increment")
	}
	if st.Healthy {
		t.Fatal("scheduler reports healthy with a quarantined class")
	}

	// While quarantined, further runs are refused with the typed error.
	var refused struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	postJobAction(t, ts.URL, "run", map[string]string{"name": "test-flaky"}, &refused)
	if refused.OK {
		t.Fatal("run of quarantined class succeeded, want refusal")
	}

	// Unknown job names 404 rather than silently succeeding.
	if code := postJobAction(t, ts.URL, "run", map[string]string{"name": "no-such-job"}, nil); code != http.StatusNotFound {
		t.Fatalf("run of unknown job status = %d, want 404", code)
	}

	// Operator fixes the underlying fault and resumes the class.
	broken.Store(false)
	var after jobs.Status
	if code := postJobAction(t, ts.URL, "resume", map[string]string{"class": string(jobs.ClassRebalance)}, &after); code != http.StatusOK {
		t.Fatalf("resume status = %d", code)
	}
	if cs := classStatus(t, after, jobs.ClassRebalance); cs.Quarantined {
		t.Fatalf("rebalance class still quarantined after resume: %+v", cs)
	}

	var fixed struct {
		OK bool `json:"ok"`
	}
	postJobAction(t, ts.URL, "run", map[string]string{"name": "test-flaky"}, &fixed)
	if !fixed.OK {
		t.Fatal("fixed job still failing after resume")
	}
	if st := getJobsStatus(t, ts.URL); !st.Healthy {
		t.Fatal("scheduler not healthy after resume + clean run")
	}

	// Full teardown leaks nothing: panics were recovered on the job
	// goroutines, not abandoned.
	ts.Close()
	s.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("goroutines leaked: base=%d now=%d", base, n)
	}
}
