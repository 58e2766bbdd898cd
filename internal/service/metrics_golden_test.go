package service

import (
	"context"
	"errors"
	"net/http"
	"os"
	"regexp"
	"testing"
)

// latencyValue matches the value of a wall-clock-derived job latency line
// (mean, p50, p99). The count is deterministic and stays unmasked.
var latencyValue = regexp.MustCompile(`(?m)^(\S*job_latency_(?:mean|p50|p99)_us\S*) .*$`)

// maskLatency blanks the values that depend on wall time, so the rest of a
// /metrics document can be compared byte for byte.
func maskLatency(text string) string {
	return latencyValue.ReplaceAllString(text, "$1 <masked>")
}

// TestMetricsGoldenServer pins one daemon's /metrics text byte for byte: the
// names, their sort order and value formatting are an exposition contract
// that the fleet rollup, perfbench and the CI greps all parse. The scenario
// covers every path that writes a metric in a single server: a failed job
// (armed fault panic), acceptance, dedupe, shedding, two tenants, completion
// and a cache hit. A mismatch means the exposition changed; if that is
// intended, replace testdata/metrics_server.golden with the text printed.
func TestMetricsGoldenServer(t *testing.T) {
	gate := make(chan struct{})
	_, base := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Faults:     mustFaults(t, "seed=7;worker.run:panic:count=1"),
		Runner: func(ctx context.Context, spec CanonicalSpec,
			p func(int, int, string)) ([]byte, error) {
			if spec.Options.Seed == 2 {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return stubRunner(1)(ctx, spec, p)
		},
	})
	ctx := context.Background()
	alice := NewClient(base.Base(), WithTenant("alice"), WithRetry(NoRetry()))
	bob := NewClient(base.Base(), WithTenant("bob"), WithRetry(NoRetry()))

	// The armed fault panics the first job to run.
	st, err := alice.SubmitAndWait(ctx, cellSpec(1), nil)
	if err != nil || st.Status != StatusFailed {
		t.Fatalf("first job: %+v, %v; want failed by injected panic", st, err)
	}
	// Seed 2 holds the only worker; its twin is deduped onto it.
	if _, err := alice.Submit(ctx, cellSpec(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		m, err := alice.Metrics(ctx)
		return err == nil && m["idylld_jobs_inflight"] == 1
	})
	if st, err := alice.Submit(ctx, cellSpec(2)); err != nil || !st.Deduped {
		t.Fatalf("twin submission: %+v, %v; want deduped", st, err)
	}
	// Bob fills the one queue slot, then is shed.
	if _, err := bob.Submit(ctx, cellSpec(3)); err != nil {
		t.Fatal(err)
	}
	var shed *APIError
	if _, err := bob.Submit(ctx, cellSpec(4)); !errors.As(err, &shed) || shed.Status != http.StatusTooManyRequests {
		t.Fatalf("fourth distinct job: err = %v, want HTTP 429", err)
	}
	close(gate)
	// The latency observation is the last metric a finishing job writes.
	waitFor(t, func() bool {
		m, err := alice.Metrics(ctx)
		return err == nil && m["idylld_job_latency_count"] == 2
	})
	// A finished job resubmitted is answered from the cache.
	if st, err := bob.Submit(ctx, cellSpec(3)); err != nil || !st.Cached {
		t.Fatalf("resubmission: %+v, %v; want cached", st, err)
	}

	text, err := base.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/metrics_server.golden", maskLatency(text))
}

// checkGolden compares got with the golden file at path and prints got in
// full on a mismatch.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; the current text is:\n%s", err, got)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
