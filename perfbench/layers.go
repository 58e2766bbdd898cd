package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"
)

// flushFunc flushes a migrated page from every L1 and L2: the path the
// paper's invalidations, and this simulator's profile, are about.
const flushFunc = "idyll/internal/datapath.(*Hierarchy).InvalidatePage"

// hostLayers are the layers whose share of profiled CPU is reported.
var hostLayers = []string{"sim", "walker", "datapath", "tlb", "gpu", "pagetable", "interconnect", "runtime"}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

// setSimLayers sets the per-layer metrics every workload shares: counters
// of the cells it simulated, the spans around their generate/build/run
// steps, and the traced phase's profile. Metrics of layers the workload
// does not exercise start at 0; the workload overwrites the ones it does.
func (r *run) setSimLayers(k simCounters, spans []span, prof profileResult) {
	runMS := sum(durations(spans, "system.run"))
	r.set("sim.events", float64(k.events))
	r.set("sim.ns_per_event", ratio(runMS*1e6, float64(k.events)))
	r.set("walker.queue_rejects", float64(k.rejects))
	r.set("walker.useful_ratio", ratio(float64(k.walks), float64(k.walks+k.rejects)))
	for _, l := range hostLayers {
		r.set(l+".host_share", prof.shares[l])
	}
	r.set("datapath.flush_share", stackShare(prof.samples, flushFunc))
	r.set("driver.migrations", float64(k.migrations))
	r.set("core.invals_received", float64(k.invals))
	r.set("core.directory_filtered", float64(k.filtered))
	r.set("runtime.gc_share", prof.gcShare)
	r.set("workload.generate_ms", median(durations(spans, "workload.generate")))
	r.set("system.build_ms", median(durations(spans, "system.build")))
	r.set("system.run_ms", median(durations(spans, "system.run")))
	for _, name := range []string{"experiment.pool_efficiency", "service.submit_share",
		"service.wait_share", "service.simulate_share", "service.coord_hit_ratio",
		"fleet.dispatch_overhead_share", "fleet.replications_per_miss", "loadgen.max_rps_at_slo"} {
		r.set(name, 0)
	}
}

// setEndToEnd sets the end-to-end metrics from a measured phase, as
// measured: the median set-up time, the process's peak RSS and CPU time
// over the phase (u0 → u1, less its speed pauses), the latencies of the
// successful operations, summarised in d, and the accesses simulated.
func (r *run) setEndToEnd(setupS float64, u0, u1 usage, d distribution, simulated uint64) {
	if !d.Supported {
		r.logf("only %d operations: p10/p90 have fewer than %d samples beyond them", d.N, minBeyond)
	}
	rate := ratio(float64(simulated), (u1.cpu - u0.cpu - r.pausedCPU).Seconds())
	r.logf("raw: setup %.4f s, p10 %.3f ms, p50 %.3f ms, p90 %.3f ms over %d operations, %.0f accesses/cpu-s",
		setupS, d.P10, d.P50, d.P90, d.N, rate)
	r.set("setup_s", setupS)
	r.set("peak_rss_mb", float64(u1.maxRSS)/(1<<20))
	r.set("p10_ms", d.P10)
	r.set("p50_ms", d.P50)
	r.set("p90_ms", d.P90)
	r.set("sim_accesses_per_cpu_s", rate)
}

// scaleToNominal scales the end-to-end times and the access rate to the
// host speed where the reference kernel takes its nominal time (speed.go).
func (r *run) scaleToNominal() {
	f := r.speed.scale()
	r.logf("host speed: %s kernel %.4g ms over %d samples, scale %.3f",
		r.speed.shape, median(r.speed.samples), len(r.speed.samples), f)
	for _, name := range []string{"setup_s", "p10_ms", "p50_ms", "p90_ms"} {
		r.values[name] *= f
	}
	r.values["sim_accesses_per_cpu_s"] /= f
}

// closedLoopLag is the generator lag of a closed loop: how long the
// benchmark took to issue each operation after the previous one ended,
// over the spans named op. It returns the p99 in milliseconds.
func closedLoopLag(spans []span, op string) float64 {
	var ops []span
	for _, s := range spans {
		if s.Name == op && s.End > 0 {
			ops = append(ops, s)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	var gaps []float64
	for i := 1; i < len(ops); i++ {
		gaps = append(gaps, float64(ops[i].Start-ops[i-1].End)/1e6)
	}
	return quantile(sortedCopy(gaps), 0.99)
}

// finishTrace writes the spans, the counters (every metric value of the
// run), the raw and folded profile into the run's trace directory.
func (r *run) finishTrace(prof profileResult) {
	dir := r.traceDir()
	if err := writeTrace(dir, r.tr.snapshot(), r.values); err != nil {
		r.logf("writing trace: %v", err)
		return
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pb.gz"), prof.raw, 0o644); err != nil {
		r.logf("writing profile: %v", err)
	}
	if err := writeFolded(filepath.Join(dir, "cpu.folded"), prof.samples); err != nil {
		r.logf("writing folded profile: %v", err)
	}
	r.logf("trace written to %s", dir)
}

// keepGoing decides whether a measured loop that has run n operations
// since start starts another: it does while finishing one more lands
// closer to the deadline than stopping now, and always runs at least one.
func keepGoing(start time.Time, n int, deadline time.Duration) bool {
	if n == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(2*n) < deadline
}
