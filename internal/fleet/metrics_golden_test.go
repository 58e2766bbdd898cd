package fleet

import (
	"context"
	"os"
	"regexp"
	"testing"
	"time"

	"idyll/internal/service"
)

// latencyValue matches the value of a wall-clock-derived job latency line
// in any section of the rollup. The counts are deterministic and stay
// unmasked.
var latencyValue = regexp.MustCompile(`(?m)^(\S*job_latency_(?:mean|p50|p99)_us\S*) .*$`)

// TestMetricsGoldenFleet pins the coordinator's /metrics rollup byte for
// byte: its own idylld_ counters, the fleet_ sums and the worker_ breakdown
// of two workers. The scenario dispatches a computed job (replicated to the
// other worker by peer fill), re-routes a job its first worker cancels,
// answers one job from a worker's cache after the coordinator's one-entry
// cache evicted it, and one from the coordinator's own cache. A mismatch
// means the exposition changed; if that is intended, replace
// testdata/metrics_fleet.golden with the text printed.
func TestMetricsGoldenFleet(t *testing.T) {
	_, c, workers := newTestFleet(t, Config{CacheEntries: 1}, 2)
	ctx := context.Background()
	byID := map[string]*testWorker{}
	for _, w := range workers {
		byID[w.id] = w
	}
	submit := func(seed uint64, wantCached bool) {
		t.Helper()
		st, err := c.SubmitAndWait(ctx, cellSpec(seed), nil)
		if err != nil || st.Status != service.StatusDone || st.Cached != wantCached {
			t.Fatalf("seed %d: status %s, cached %v, %v; want done, cached %v",
				seed, st.Status, st.Cached, err, wantCached)
		}
	}

	submit(1, false)
	byID[Rank(mustHash(t, cellSpec(2)), []string{"w1", "w2"})[0]].cancelNext.Store(true)
	submit(2, false)
	submit(1, false) // evicted at the coordinator, answered from a worker's cache
	submit(1, true)  // the coordinator's own cache

	// Jobs finish before their completion counters are written; wait for
	// the last writes on every server to land.
	var text string
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		text, err = c.MetricsText(ctx)
		if err != nil {
			t.Fatal(err)
		}
		m, err := service.ParseMetrics(text)
		if err != nil {
			t.Fatal(err)
		}
		if m["idylld_job_latency_count"] == 3 && m["fleet_job_latency_count"] == 2 &&
			m["fleet_jobs_cancelled"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never settled:\n%s", text)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := latencyValue.ReplaceAllString(text, "$1 <masked>")
	want, err := os.ReadFile("testdata/metrics_fleet.golden")
	if err != nil {
		t.Fatalf("%v; the current text is:\n%s", err, got)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from testdata/metrics_fleet.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
