package service

import (
	"strings"
	"testing"
	"time"
)

// TestMetricsRenderStableOrder is the regression test for the /metrics
// ordering contract: lines are sorted by metric name (not by formatted
// line), so the order is a pure function of the key set and never shifts
// as values grow. The fleet rollup and the CI gates diff this text.
func TestMetricsRenderStableOrder(t *testing.T) {
	m := NewMetrics()
	m.Inc(jobsAccepted)
	m.Inc(jobsCompleted)
	m.IncLabel(tenantJobsAccepted, "alice")
	m.ObserveJobLatency(1500 * time.Microsecond)

	first := m.Render(cacheHits.Sample(100), QueueDepth.Sample(7), jobsInflight.Sample(0))

	// Same keys, wildly different values: the order must not move.
	for i := 0; i < 99999; i++ {
		m.Inc(jobsAccepted)
	}
	m.IncLabel(tenantJobsAccepted, "alice")
	second := m.Render(cacheHits.Sample(5), QueueDepth.Sample(0), jobsInflight.Sample(12))

	names := func(text string) []string {
		var out []string
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			name, _, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed metrics line %q", line)
			}
			out = append(out, name)
		}
		return out
	}
	n1, n2 := names(first), names(second)
	if len(n1) != len(n2) {
		t.Fatalf("key set changed: %d vs %d lines", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("line %d moved: %q vs %q\nfirst:\n%s\nsecond:\n%s",
				i, n1[i], n2[i], first, second)
		}
	}
	// And the order is genuinely sorted by name.
	for i := 1; i < len(n1); i++ {
		if n1[i-1] >= n1[i] {
			t.Fatalf("names not strictly sorted: %q then %q", n1[i-1], n1[i])
		}
	}
}

func TestRenderMetricLinesSortsKeys(t *testing.T) {
	got := RenderMetricLines("fleet_", map[string]string{
		"zeta":             "1",
		"alpha":            "22",
		`mid{worker="w2"}`: "3",
	})
	want := "fleet_alpha 22\nfleet_mid{worker=\"w2\"} 3\nfleet_zeta 1\n"
	if got != want {
		t.Fatalf("RenderMetricLines:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelKeySanitizes(t *testing.T) {
	got := LabelKey("tenant_jobs_shed", "tenant", `ali"ce{}\ bob`+"\n\r\t")
	if want := `tenant_jobs_shed{tenant="ali_ce____bob___"}`; got != want {
		t.Fatalf("LabelKey = %q, want %q", got, want)
	}
	// Long values are clipped to 64 bytes.
	long := LabelKey("n", "l", strings.Repeat("x", 500))
	if want := `n{l="` + strings.Repeat("x", 64) + `"}`; long != want {
		t.Fatalf("LabelKey = %q, want %q", long, want)
	}
	// A family line is sanitized the same way, whether counted or sampled.
	m := NewMetrics()
	m.IncLabel(tenantJobsShed, "a b")
	m.IncLabel(tenantJobsShed, "a\nb")
	text := m.Render(faultsInjectedSite.Sample("x}y", 1))
	for _, want := range []string{
		`idylld_tenant_jobs_shed{tenant="a_b"} 2`,
		`idylld_faults_injected_site{site="x_y"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("render lacks %q:\n%s", want, text)
		}
	}
}

func TestMetricsParseRoundTrip(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 42; i++ {
		m.Inc(jobsAccepted)
	}
	for i := 0; i < 7; i++ {
		m.IncLabel(tenantJobsAccepted, "bob")
	}
	parsed, err := ParseMetrics(m.Render())
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	if parsed["idylld_jobs_accepted"] != 42 || m.Value(jobsAccepted) != 42 {
		t.Fatalf("jobs_accepted = %v (Value %d), want 42",
			parsed["idylld_jobs_accepted"], m.Value(jobsAccepted))
	}
	if parsed[`idylld_tenant_jobs_accepted{tenant="bob"}`] != 7 {
		t.Fatalf("labeled counter = %v, want 7", parsed[`idylld_tenant_jobs_accepted{tenant="bob"}`])
	}
	// A declared counter never counted is not printed.
	if _, ok := parsed["idylld_jobs_failed"]; ok {
		t.Fatal("zero counter jobs_failed was printed")
	}
}
