package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"

	"idyll/internal/config"
	"idyll/internal/experiment"
	"idyll/internal/stats"
	"idyll/internal/system"
	"idyll/internal/workload"
)

// cell names one simulation: a Table 3 application under a scheme at a
// scale, with its trace seed already derived.
type cell struct {
	app    string
	scheme config.Scheme
	seed   uint64
	scale  experiment.Options // CUsPerGPU, AccessesPerCU, CounterThreshold
	// check turns on the online translation-coherence checker, which
	// errors on any stale translation and leaves the stats unchanged.
	check bool
}

func (c cell) key() string { return fmt.Sprintf("%s/%s/%d", c.app, c.scheme.Name, c.seed) }

// accesses is the number of memory accesses the cell's trace issues.
func (c cell) accesses() uint64 {
	return uint64(config.Default().NumGPUs * c.scale.CUsPerGPU * c.scale.AccessesPerCU)
}

// simulate runs one cell the way idyllsim and experiment.RunParams do:
// generate the trace, build a system, run it. With a tracer each step is a
// span under parent, keyed by the cell.
func simulate(tr *tracer, parent int, c cell) (*stats.Sim, error) {
	app, err := workload.App(c.app)
	if err != nil {
		return nil, err
	}
	m := config.Default()
	m.CUsPerGPU = c.scale.CUsPerGPU
	m.AccessCounterThreshold = c.scale.CounterThreshold
	key := c.key()

	sp := tr.begin("workload.generate", key, parent)
	trace := workload.Generate(app, m.NumGPUs, m.CUsPerGPU, c.scale.AccessesPerCU, c.seed)
	tr.end(sp)

	sp = tr.begin("system.build", key, parent)
	s, err := system.New(m, c.scheme)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	s.CheckTranslations = c.check

	sp = tr.begin("system.run", key, parent)
	st, err := s.Run(trace)
	tr.end(sp)
	if err == nil && st.Accesses != c.accesses() {
		err = fmt.Errorf("%s: simulated %d accesses, trace has %d", key, st.Accesses, c.accesses())
	}
	return st, err
}

// digest fingerprints a cell's stats so runs in different processes can be
// compared: every exported counter plus the summary and histogram shape.
func digest(st *stats.Sim) string {
	raw, err := json.Marshal(st)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.New()
	h.Write(raw)
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d", st.Summary(), st.Sharing().Pages(),
		st.DemandMissHist.Percentile(50), st.DemandMissHist.Percentile(99),
		st.InvalHist.Percentile(50), st.InvalHist.Percentile(99))
	return hex.EncodeToString(h.Sum(nil))
}

// simCounters sums the stats.Sim counters the per-layer metrics use.
type simCounters struct {
	cells, accesses, events, rejects, walks uint64
	migrations, invals, filtered            uint64
}

func (k *simCounters) add(st *stats.Sim) {
	k.cells++
	k.accesses += st.Accesses
	k.events += st.EngineEvents
	k.rejects += st.WalkQueueRejects
	k.walks += st.WalkerDemand + st.WalkerInval + st.WalkerUpdate
	k.migrations += st.Migrations
	k.invals += st.InvalReceived
	k.filtered += st.DirectoryFiltered
}

// profile captures what the traced phase of a run costs the host: a CPU
// profile folded by layer, heap allocations, and the GC's CPU share.
type profile struct {
	buf     bytes.Buffer
	mallocs uint64
	gc, cpu float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// cpuSeconds returns GC CPU and busy (non-idle) CPU seconds so far.
func cpuSeconds() (gc, busy float64) {
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	get := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return get(0), get(1) - get(2)
}

func startProfile() (*profile, error) {
	p := &profile{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs
	p.gc, p.cpu = cpuSeconds()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// profileResult is a stopped profile's yield.
type profileResult struct {
	samples []stackSample
	shares  map[string]float64 // layer → share of profiled CPU
	mallocs uint64             // heap objects allocated while profiling
	gcShare float64            // GC CPU ÷ busy CPU while profiling
	raw     []byte             // the gzipped profile itself
}

func (p *profile) stop() (profileResult, error) {
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, cpu := cpuSeconds()
	res := profileResult{mallocs: ms.Mallocs - p.mallocs, raw: p.buf.Bytes()}
	if d := cpu - p.cpu; d > 0 {
		res.gcShare = (gc - p.gc) / d
	}
	samples, err := parseProfile(res.raw)
	if err != nil {
		return res, err
	}
	res.samples = samples
	res.shares = foldByLayer(samples)
	return res, nil
}
