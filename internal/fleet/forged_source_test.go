package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"idyll/internal/service"
)

// A worker's job status is untrusted input: its Source field must not reach
// the coordinator's /metrics as a metric name. A fake worker answers every
// dispatch at once, reporting whatever source the test sets; after an
// honest job fixes the set of lines, forged sources (one that smuggles a
// newline and a second metric, one of 500 random bytes) must add none.
func TestForgedResultSourceAddsNoMetric(t *testing.T) {
	var mu sync.Mutex
	source := service.SourceComputed
	next := 0
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/healthz":
			json.NewEncoder(w).Encode(map[string]string{
				"status": "ok", "worker_id": "w1", "fleet_version": VersionString})
		case "/metrics": // an empty exposition: the rollup adds no worker_ lines
		case "/v1/jobs":
			mu.Lock()
			next++
			st := service.JobStatus{ID: fmt.Sprintf("fake-%d", next),
				Status: service.StatusDone, Source: source, Result: json.RawMessage(`{}`)}
			mu.Unlock()
			json.NewEncoder(w).Encode(st)
		default:
			http.NotFound(w, r)
		}
	}))
	defer worker.Close()

	coord, err := NewCoordinator(Config{
		Workers:       []WorkerAddr{{ID: "w1", URL: worker.URL}},
		Replicas:      1,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Drain(ctx)
		hs.Close()
	})
	c := service.NewClient(hs.URL)
	ctx := context.Background()

	// names runs one job whose worker reports src, waits for the
	// coordinator to record its completion, and returns the /metrics line
	// names in order.
	jobs := 0
	names := func(seed uint64, src string) []string {
		t.Helper()
		mu.Lock()
		source = src
		mu.Unlock()
		st, err := c.SubmitAndWait(ctx, cellSpec(seed), nil)
		if err != nil || st.Status != service.StatusDone {
			t.Fatalf("seed %d: %+v, %v", seed, st, err)
		}
		jobs++
		want := fmt.Sprintf("\nidylld_job_latency_count %d\n", jobs)
		deadline := time.Now().Add(5 * time.Second)
		for {
			text, err := c.MetricsText(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(text, want) {
				var out []string
				for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
					name, _, _ := strings.Cut(line, " ")
					out = append(out, name)
				}
				return out
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never completed at the coordinator:\n%s", jobs, text)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	honest := names(1, service.SourceComputed)
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 500)
	for i := range noise {
		noise[i] = byte(1 + rng.Intn(255))
	}
	for i, forged := range []string{"x 1\nidylld_jobs_completed", string(noise)} {
		got := names(uint64(2+i), forged)
		if strings.Join(got, "\n") != strings.Join(honest, "\n") {
			t.Fatalf("forged source %q changed the /metrics lines:\nbefore: %q\nafter:  %q",
				forged, honest, got)
		}
	}
}
