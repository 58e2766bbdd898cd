package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"idyll/internal/sim"
	"idyll/internal/stats"
)

// A Counter is one declared /metrics counter. Each is declared once, at
// package level, with NewCounter; a misspelt or undeclared counter does not
// compile, and the declaration's doc comment is its help text. Values live
// in a Metrics, one per server, so several servers can share a process. A
// counter counted with Metrics.Inc is printed once it is non-zero; one read
// from another component at scrape time is passed to Render as a Sample and
// always printed.
type Counter struct{ name string }

// NewCounter declares the counter exposed as name.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Sample is the counter's value v, read at scrape time.
func (c *Counter) Sample(v uint64) Sample {
	return Sample{c.name, strconv.FormatUint(v, 10)}
}

// A Family is a declared counter with one label, exposed as
// name{label="value"} per label value.
type Family struct{ name, label string }

// NewFamily declares the counter family exposed as name{label="..."}.
func NewFamily(name, label string) *Family { return &Family{name: name, label: label} }

// Sample is v as the family's line for the label value value, read at
// scrape time.
func (f *Family) Sample(value string, v uint64) Sample {
	return Sample{f.key(labelValue(value)), strconv.FormatUint(v, 10)}
}

// key renders the line name for an already sanitized label value.
func (f *Family) key(clean string) string {
	return f.name + `{` + f.label + `="` + clean + `"}`
}

// A Gauge is a declared point-in-time value, sampled at scrape time.
type Gauge struct{ name string }

// NewGauge declares the gauge exposed as name.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Sample is the gauge's value v, read at scrape time.
func (g *Gauge) Sample(v int) Sample { return Sample{g.name, strconv.Itoa(v)} }

// A Sample is one formatted value handed to Render: a gauge, or a counter
// another component keeps (the caches, the checkpoint store, the fault
// injector). Build one with a handle's Sample method.
type Sample struct{ name, value string }

// The daemon's counters.
var (
	// jobsAccepted counts submissions queued to run.
	jobsAccepted = NewCounter("jobs_accepted")
	// jobsDeduped counts submissions attached to an identical in-flight job.
	jobsDeduped = NewCounter("jobs_deduped")
	// jobsShed counts submissions refused because the queue was full.
	jobsShed = NewCounter("jobs_shed")
	// jobsCompleted counts jobs that finished with a result.
	jobsCompleted = NewCounter("jobs_completed")
	// jobsCancelled counts jobs stopped by a timeout or a forced drain.
	jobsCancelled = NewCounter("jobs_cancelled")
	// jobsFailed counts jobs that ended in an error.
	jobsFailed = NewCounter("jobs_failed")
	// jobPanics counts jobs whose run panicked (each also counts as failed).
	jobPanics = NewCounter("job_panics")
	// peerFills counts results fetched from a peer instead of recomputed.
	peerFills = NewCounter("peer_fills")
	// peerFillMisses counts peer fills no listed peer could answer.
	peerFillMisses = NewCounter("peer_fill_misses")
	// peerServes counts cached results served to a peer.
	peerServes = NewCounter("peer_serves")
	// peerServeMisses counts peer result requests this cache could not answer.
	peerServeMisses = NewCounter("peer_serve_misses")
	// ckptPeerServes counts warmup checkpoints served to a peer.
	ckptPeerServes = NewCounter("ckpt_peer_serves")
	// ckptPeerServeMisses counts peer checkpoint requests the store could
	// not answer.
	ckptPeerServeMisses = NewCounter("ckpt_peer_serve_misses")

	// tenantJobsAccepted counts queued submissions per tenant.
	tenantJobsAccepted = NewFamily("tenant_jobs_accepted", "tenant")
	// tenantJobsCompleted counts jobs finished with a result per tenant.
	tenantJobsCompleted = NewFamily("tenant_jobs_completed", "tenant")
	// tenantJobsShed counts submissions refused per tenant.
	tenantJobsShed = NewFamily("tenant_jobs_shed", "tenant")
)

// Counters other components keep, sampled at scrape time.
var (
	// cacheHits counts result cache lookups that found the result.
	cacheHits = NewCounter("cache_hits")
	// cacheMisses counts result cache lookups that did not.
	cacheMisses = NewCounter("cache_misses")
	// cacheDiskHits counts result cache hits answered from disk.
	cacheDiskHits = NewCounter("cache_disk_hits")
	// cacheVerifyFailures counts result cache entries that failed their
	// checksum.
	cacheVerifyFailures = NewCounter("cache_verify_failures")
	// cacheCorruptQuarantined counts corrupt result cache files moved aside.
	cacheCorruptQuarantined = NewCounter("cache_corrupt_quarantined")
	// ckptHits counts warmup checkpoint lookups that found the checkpoint.
	ckptHits = NewCounter("ckpt_hits")
	// ckptMisses counts warmup checkpoint lookups that did not.
	ckptMisses = NewCounter("ckpt_misses")
	// ckptDiskHits counts checkpoint hits answered from disk.
	ckptDiskHits = NewCounter("ckpt_disk_hits")
	// ckptRemoteHits counts checkpoints fetched from a peer.
	ckptRemoteHits = NewCounter("ckpt_remote_hits")
	// ckptVerifyFailures counts checkpoints that failed their checksum.
	ckptVerifyFailures = NewCounter("ckpt_verify_failures")
	// ckptCorruptQuarantined counts corrupt checkpoint files moved aside.
	ckptCorruptQuarantined = NewCounter("ckpt_corrupt_quarantined")
	// faultsInjected counts injected faults; printed only when injection is
	// armed.
	faultsInjected = NewCounter("faults_injected")
	// faultsInjectedSite counts injected faults per injection site.
	faultsInjectedSite = NewFamily("faults_injected_site", "site")
)

// The daemon's gauges.
var (
	// QueueDepth is the number of jobs waiting for a worker. The fleet
	// coordinator reports its own fair-share backlog under the same name.
	QueueDepth = NewGauge("queue_depth")
	// jobsInflight is the number of jobs running now.
	jobsInflight = NewGauge("jobs_inflight")
	// jobsTracked is the number of job records kept for status queries.
	jobsTracked = NewGauge("jobs_tracked")
	// cacheEntries is the number of results in the in-memory cache.
	cacheEntries = NewGauge("cache_entries")
	// ckptEntries is the number of warmup checkpoints in memory.
	ckptEntries = NewGauge("ckpt_entries")
)

// Metrics holds one server's counter values, exposed as plain text on GET
// /metrics (one "name value" pair per line, prometheus-style names without
// the type annotations). Safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	counts  map[*Counter]uint64
	labeled map[familyLine]uint64
	// latency holds completed-job wall time in microseconds; the power-of-
	// two bucketing of stats.Histogram is plenty for p50/p99 of jobs whose
	// durations span micro- (cache hit) to many seconds (figure run).
	latency *stats.Histogram
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		counts:  make(map[*Counter]uint64),
		labeled: make(map[familyLine]uint64),
		latency: stats.NewHistogram(),
	}
}

// Inc adds one to c.
func (m *Metrics) Inc(c *Counter) {
	m.mu.Lock()
	m.counts[c]++
	m.mu.Unlock()
}

// familyLine is one line of a family: its sanitized label value.
type familyLine struct {
	f     *Family
	clean string
}

// IncLabel adds one to f's line for the label value value. The value is
// sanitized (see LabelKey), so header input cannot break the line format.
func (m *Metrics) IncLabel(f *Family, value string) {
	line := familyLine{f, labelValue(value)}
	m.mu.Lock()
	m.labeled[line]++
	m.mu.Unlock()
}

// Value reads c's count.
func (m *Metrics) Value(c *Counter) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[c]
}

// LabelKey renders the canonical labeled-counter key. Label values are
// clipped to 64 bytes and stripped of characters that would corrupt the
// text exposition (quotes, braces, whitespace).
func LabelKey(name, label, value string) string {
	return (&Family{name: name, label: label}).key(labelValue(value))
}

// labelValue is LabelKey's sanitizer for one label value.
func labelValue(value string) string {
	var b strings.Builder
	for _, r := range value {
		switch {
		case r == '"' || r == '{' || r == '}' || r == '\\',
			r == ' ' || r == '\n' || r == '\r' || r == '\t':
			b.WriteByte('_')
		default:
			b.WriteRune(r)
		}
		if b.Len() >= 64 {
			break
		}
	}
	return b.String()
}

// ObserveJobLatency records one completed job's wall time.
func (m *Metrics) ObserveJobLatency(d time.Duration) {
	m.mu.Lock()
	m.latency.Add(sim.VTime(d.Microseconds()))
	m.mu.Unlock()
}

// Render emits every counter plus latency percentiles as one
// "idylld_<name> <value>" line each, sorted by metric *name* — not by
// formatted line — so the order is a pure function of the key set and can
// never shift as values grow. Byte-stable output is a contract here: the
// fleet rollup and the CI gates diff and grep this text, so map-order or
// value-dependent ordering would be diff noise at best and a flaky gate at
// worst (RenderMetricLines has the regression test). samples carries the
// values the server reads at scrape time (gauges, cache and fault counts).
func (m *Metrics) Render(samples ...Sample) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	vals := make(map[string]string, len(m.counts)+len(samples)+4)
	for c, v := range m.counts {
		vals[c.name] = strconv.FormatUint(v, 10)
	}
	for line, v := range m.labeled {
		vals[line.f.key(line.clean)] = strconv.FormatUint(v, 10)
	}
	for _, s := range samples {
		vals[s.name] = s.value
	}
	vals["job_latency_count"] = fmt.Sprintf("%d", m.latency.Count())
	vals["job_latency_mean_us"] = fmt.Sprintf("%.0f", m.latency.Mean())
	vals["job_latency_p50_us"] = fmt.Sprintf("%d", m.latency.Percentile(50))
	vals["job_latency_p99_us"] = fmt.Sprintf("%d", m.latency.Percentile(99))
	return RenderMetricLines("idylld_", vals)
}

// RenderMetricLines formats a name→value map as sorted "prefix<name> value"
// lines, the shared text-exposition renderer for the daemon's /metrics and
// the fleet coordinator's rollup. Keys are sorted with sort.Strings before
// values are attached, so the line order is independent of both map
// iteration order and the values themselves.
func RenderMetricLines(prefix string, vals map[string]string) string {
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(prefix)
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(vals[name])
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseMetrics decodes a Render payload back into a name→value map — the
// client-side half, used by idyllctl and the CI smoke test to assert on
// cache-hit counters.
func ParseMetrics(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("service: bad metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(value, "%g", &v); err != nil {
			return nil, fmt.Errorf("service: bad metrics value %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}
