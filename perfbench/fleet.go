package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"idyll/internal/config"
	"idyll/internal/experiment"
	"idyll/internal/fleet"
	"idyll/internal/service"
	"idyll/internal/workload"
)

// The svc-fleet workload serves cell jobs through an in-process fleet: a
// fleet.Coordinator with default cache sizes in front of two
// service.Server workers (one job at a time each, production RunSpecWith)
// over loopback HTTP. Requests arrive open-loop on a Poisson schedule over
// two client connections, in three classes:
//   - hit: a hot set the coordinator's cache keeps resident (a read);
//   - dispatch: a cold set larger than the coordinator's LRU but held by
//     the workers, relayed without simulating;
//   - miss: a fresh cell that computes, fills the cache and replicates
//     synchronously (the writes).
//
// Every cell is the size the repository itself submits to idylld: the
// fleet-gate CI job's cells, 2 CUs per GPU × 50 accesses per CU. Nothing
// in the repository records real traffic, so the class mix is an
// assumption, and so is the rate (see fleetRate).

const (
	// fleetRate is the Poisson arrival rate of the measured phase. The
	// traced run's capacity ladder meets even its top rung (320 rps), so
	// the fleet is lightly loaded: a request seldom queues behind another,
	// and its latency is the cost of its own path through the fleet.
	fleetRate  = 20.0 // requests per second
	fleetConns = 2
	hotSet     = 16
	// coldSet exceeds the coordinator's default 256-entry result LRU, and
	// the phase walks it in order, so every cold request misses there.
	coldSet         = 320
	workerCacheSize = 8192
	// fleetGCPercent is the fleet process's GOGC. Its live heap is small,
	// so at the default of 100 about three collections start per miss,
	// and on the shared 2-core host collections slow far more than the
	// reference kernel when other tenants load it: the miss median went
	// from 7 to 14 ms while the kernel slowed by a third. At 400 there is
	// less than one collection per miss. Their cost still shows, in
	// sim_accesses_per_cpu_s and the per-layer runtime metrics.
	fleetGCPercent = 400
)

type class int

const (
	hit class = iota
	dispatch
	miss
)

var classNames = [...]string{"hit", "dispatch", "miss"}

// classBlock is the mix: every 5 consecutive requests are 1 hit, 3
// dispatches and 1 miss, in a seeded order. The shares are an assumption.
// The end-to-end latencies are per-class medians (classMedians), so the
// shares move them only through how much the classes contend.
var classBlock = []class{hit, dispatch, dispatch, dispatch, miss}

// fleetSpec is cell i of one spec set ("hot", "cold" or "miss").
func fleetSpec(seed uint64, set string, i int) service.JobSpec {
	apps := workload.AppAbbrs()
	s := experiment.CellSeed(seed, "svc-fleet/"+set, strconv.Itoa(i))
	return service.JobSpec{Kind: "cell", App: apps[i%len(apps)], Scheme: "idyll",
		Options: json.RawMessage(fmt.Sprintf(
			`{"cus_per_gpu":2,"accesses_per_cu":50,"seed":%d}`, s))}
}

// request is one scheduled request.
type request struct {
	class class
	spec  service.JobSpec
	canon service.CanonicalSpec
	hash  string
}

func newRequest(c class, spec service.JobSpec) (request, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return request{}, err
	}
	h, err := canon.Hash()
	return request{class: c, spec: spec, canon: canon, hash: h}, err
}

// fleetRig is the in-process fleet and its client.
type fleetRig struct {
	workers []*service.Server
	servers []*httptest.Server
	coord   *fleet.Coordinator
	client  *service.Client
	sims    atomic.Int64 // worker simulations started
	// hot and cold are the resident request sets. hotNext, coldNext and
	// missNext are where the next phase goes on: every hot cell is read
	// as often, every cold cell has left the coordinator's LRU, and the
	// misses cycle the apps evenly across phases.
	hot, cold                   []request
	hotNext, coldNext, missNext int
}

// startFleet starts two workers and a coordinator on loopback ports.
func startFleet(tr *tracer) (*fleetRig, error) {
	f := &fleetRig{}
	var addrs []fleet.WorkerAddr
	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("w%d", i)
		filler := fleet.NewFiller("", nil)
		run := service.RunSpecWith(0, nil)
		srv, err := service.NewServer(service.Config{
			Workers: 1,
			// The wrapper counts simulations and, in a traced run, spans
			// them under the spec hash the requesting client also keys by.
			Runner: func(ctx context.Context, spec service.CanonicalSpec,
				progress func(int, int, string)) ([]byte, error) {
				f.sims.Add(1)
				h, _ := spec.Hash()
				sp := tr.begin("service.simulate", h, 0)
				defer tr.end(sp)
				return run(ctx, spec, progress)
			},
			PeerFill:     filler.ResultFill,
			OnPeers:      filler.UpdatePeers,
			FleetID:      id,
			FleetVersion: fleet.VersionString,
			CacheEntries: workerCacheSize,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		hs := httptest.NewServer(srv.Handler())
		f.workers = append(f.workers, srv)
		f.servers = append(f.servers, hs)
		addrs = append(addrs, fleet.WorkerAddr{ID: id, URL: hs.URL})
	}
	coord, err := fleet.NewCoordinator(fleet.Config{Workers: addrs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	hs := httptest.NewServer(coord.Handler())
	f.servers = append(f.servers, hs)
	f.client = service.NewClient(hs.URL, service.WithHTTPClient(&http.Client{
		Transport: &http.Transport{MaxConnsPerHost: fleetConns, MaxIdleConnsPerHost: fleetConns},
	}))
	return f, nil
}

// close drains the coordinator and the workers and stops every server.
func (f *fleetRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.coord != nil {
		f.coord.Drain(ctx)
	}
	for _, w := range f.workers {
		w.Drain(ctx)
	}
	for _, hs := range f.servers {
		hs.Close()
	}
}

// call submits one request and waits for its result, spanning the POST and
// the SSE wait under the request's span.
func (f *fleetRig) call(tr *tracer, q request) (*service.JobStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	root := tr.begin("request."+classNames[q.class], q.hash, 0)
	defer tr.end(root)
	sp := tr.begin("service.submit", q.hash, root)
	st, err := f.client.Submit(ctx, q.spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if st.Status != service.StatusDone && st.Status != service.StatusFailed && st.Status != service.StatusCancelled {
		sp = tr.begin("service.wait", q.hash, root)
		st, err = f.client.Wait(ctx, st.ID, nil)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	if st.Status != service.StatusDone {
		return st, fmt.Errorf("job %s: %s %s", q.hash[:12], st.Status, st.Error)
	}
	return st, nil
}

// fill submits reqs two at a time, in order.
func (f *fleetRig) fill(reqs []request) error {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make([]error, fleetConns)
	)
	for c := 0; c < fleetConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				if _, err := f.call(nil, reqs[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setupFleet starts the fleet and makes the cold set resident on the
// workers and the hot set resident in the coordinator's cache.
func setupFleet(seed uint64, tr *tracer) (*fleetRig, error) {
	f, err := startFleet(tr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < coldSet; i++ {
		q, err := newRequest(dispatch, fleetSpec(seed, "cold", i))
		if err != nil {
			f.close()
			return nil, err
		}
		f.cold = append(f.cold, q)
	}
	for i := 0; i < hotSet; i++ {
		q, err := newRequest(hit, fleetSpec(seed, "hot", i))
		if err != nil {
			f.close()
			return nil, err
		}
		f.hot = append(f.hot, q)
	}
	if err := f.fill(append(append([]request(nil), f.cold...), f.hot...)); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// phase is one open-loop stretch of load and what it observed.
type phase struct {
	reqs     []request
	outcomes []outcome
	results  []*service.JobStatus
}

// schedule builds a phase's requests: Poisson arrivals at rate over dur,
// classes in shuffled blocks, hot requests cycling the hot set, dispatch
// requests walking the cold set, and misses walking the fresh "miss" specs.
func (f *fleetRig) schedule(rng *rand.Rand, seed uint64, rate float64, dur time.Duration) (*phase, []time.Duration, error) {
	due := poissonSchedule(rng, rate, dur)
	p := &phase{reqs: make([]request, len(due)), results: make([]*service.JobStatus, len(due))}
	block := append([]class(nil), classBlock...)
	for i := range due {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		switch c := block[i%len(block)]; c {
		case hit:
			p.reqs[i] = f.hot[f.hotNext%len(f.hot)]
			f.hotNext++
		case dispatch:
			p.reqs[i] = f.cold[f.coldNext%len(f.cold)]
			f.coldNext++
		case miss:
			q, err := newRequest(miss, fleetSpec(seed, "miss", f.missNext))
			if err != nil {
				return nil, nil, err
			}
			p.reqs[i] = q
			f.missNext++
		}
	}
	return p, due, nil
}

// run drives the phase's schedule open-loop.
func (f *fleetRig) run(tr *tracer, p *phase, due []time.Duration) {
	clk := wallClock{t0: time.Now()}
	p.outcomes = openLoop(due, fleetConns, clk, func(i int) error {
		st, err := f.call(tr, p.reqs[i])
		p.results[i] = st
		return err
	})
}

// classLatencies returns each class's latencies (ms) of successful requests.
func (p *phase) classLatencies() [3][]float64 {
	var out [3][]float64
	for i, o := range p.outcomes {
		if o.err == nil {
			out[p.reqs[i].class] = append(out[p.reqs[i].class], float64(o.latency())/1e6)
		}
	}
	return out
}

// check validates every request of the phase: it succeeded, hits were
// answered by the coordinator's cache and dispatches were not, and every
// result equals a direct service.RunSpec of its spec (refs caches those
// by hash). It returns the number of failed requests.
func (r *run) checkPhase(p *phase, refs map[string][]byte) int {
	failed := 0
	for i, o := range p.outcomes {
		q, st := p.reqs[i], p.results[i]
		switch {
		case o.err != nil:
			r.problem("%s request %s: %v", classNames[q.class], q.hash[:12], o.err)
		case q.class == hit && !st.Cached:
			r.problem("hit request %s was not answered by the coordinator cache", q.hash[:12])
		case q.class != hit && st.Cached:
			r.problem("%s request %s was answered by the coordinator cache", classNames[q.class], q.hash[:12])
		default:
			ref, ok := refs[q.hash]
			if !ok {
				raw, err := service.RunSpec(context.Background(), q.canon, nil)
				if err != nil {
					r.problem("direct RunSpec of %s: %v", q.hash[:12], err)
					failed++
					continue
				}
				ref, refs[q.hash] = raw, raw
			}
			if string(ref) == string(st.Result) {
				continue
			}
			r.problem("%s request %s: response differs from a direct RunSpec", classNames[q.class], q.hash[:12])
		}
		failed++
	}
	return failed
}

// missAccesses sums the accesses simulated for the phase's miss requests.
func (p *phase) missAccesses() uint64 {
	var n uint64
	for i, q := range p.reqs {
		if q.class != miss || p.results[i] == nil {
			continue
		}
		var res service.CellResult
		if json.Unmarshal(p.results[i].Result, &res) == nil {
			n += res.Accesses
		}
	}
	return n
}

func (p *phase) count(c class) int {
	n := 0
	for _, q := range p.reqs {
		if q.class == c {
			n++
		}
	}
	return n
}

// logClasses prints each class's median and tail, the per-class view of
// the phase (the tail is the highest percentile with minBeyond samples
// beyond it).
func (r *run) logClasses(label string, p *phase) {
	for c, ms := range p.classLatencies() {
		s := sortedCopy(ms)
		tail, ok := tailPercentile(len(s))
		msg := fmt.Sprintf("%s %-8s n=%4d p50=%8.3fms", label, classNames[c], len(s), quantile(s, 0.5))
		if ok && tail > 50 {
			msg += fmt.Sprintf(" p%g=%8.3fms", tail, quantile(s, tail/100))
		}
		r.logf("%s", msg)
	}
	var lags []float64
	for _, o := range p.outcomes {
		lags = append(lags, float64(o.lag())/1e6)
	}
	s := sortedCopy(lags)
	r.logf("%s generator lag p50=%.3fms p99=%.3fms", label, quantile(s, 0.5), quantile(s, 0.99))
}

func runFleet(r *run) error {
	debug.SetGCPercent(fleetGCPercent)
	var rigs []*fleetRig
	defer func() {
		for _, f := range rigs {
			f.close()
		}
	}()
	f, setupS, err := timedSetup(func() (*fleetRig, error) {
		f, err := setupFleet(r.seed, r.tr)
		if f != nil {
			rigs = append(rigs, f)
		}
		return f, err
	}, func(f *fleetRig) {
		f.close()
		rigs = rigs[:len(rigs)-1]
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x5eed))
	refs := map[string][]byte{}
	if r.traced {
		return fleetTraced(r, f, rng, refs)
	}

	// The measured phase is a run of open-loop segments of speedInterval
	// each. After a segment's last request has finished, the fleet is idle
	// and the host's speed is sampled; the next segment's schedule starts
	// after the pause, so no request is timed across it.
	segments := int(r.seconds / speedInterval)
	if segments < 1 {
		segments = 1
	}
	segLen := r.seconds / time.Duration(segments)
	p := &phase{}
	sims0 := f.sims.Load()
	u0 := r.startPhase()
	for range segments {
		seg, due, err := f.schedule(rng, r.seed, fleetRate, segLen)
		if err != nil {
			return err
		}
		f.run(nil, seg, due)
		p.append(seg)
		r.speedPause()
	}
	u1 := readUsage()
	sims := f.sims.Load() - sims0

	r.attempted = len(p.reqs)
	r.failed = r.checkPhase(p, refs)
	if want := int64(p.count(miss)); sims != want {
		r.problem("workers simulated %d cells for %d misses; dispatches must not simulate", sims, want)
	}
	r.logClasses("phase", p)
	r.setEndToEnd(setupS, u0, u1, p.classMedians(), p.missAccesses())
	return nil
}

// classMedians summarises the phase for the end-to-end metrics: p10, p50
// and p90 are the medians of the hits, the dispatches and the misses. With
// the 1:3:1 mix that is where the request-wide 10th, 50th and 90th
// percentiles fall when the classes do not overlap. Taken per class, the
// few quick requests that a loaded host slows past the miss median do not
// move the slow figure: request-wide, they moved the 90th percentile by 2%
// to 21% of the miss median from run to run.
func (p *phase) classMedians() distribution {
	lat := p.classLatencies()
	d := distribution{P10: median(lat[hit]), P50: median(lat[dispatch]), P90: median(lat[miss]), Supported: true}
	for _, ms := range lat {
		d.N += len(ms)
		d.Supported = d.Supported && beyond(len(ms), 50) >= minBeyond
	}
	return d
}

// append adds another phase's requests and what they observed.
func (p *phase) append(q *phase) {
	p.reqs = append(p.reqs, q.reqs...)
	p.outcomes = append(p.outcomes, q.outcomes...)
	p.results = append(p.results, q.results...)
}

// sloLimits are the per-class p90 latency limits of the rate ladder.
var sloLimits = [3]float64{hit: 5, dispatch: 10, miss: 50} // ms

// ladderRates are the rungs of max_rps_at_slo, each held for ladderRung.
var ladderRates = []float64{20, 40, 80, 160, 320}

const ladderRung = 2 * time.Second

// meetsSLO reports whether a ladder rung met every class limit with no
// failed request and no growing backlog: the send delay of its last
// quarter must stay within 5 ms of its first quarter's.
func meetsSLO(p *phase) bool {
	for c, ms := range p.classLatencies() {
		if len(ms) == 0 || quantile(sortedCopy(ms), 0.9) > sloLimits[c] {
			return false
		}
	}
	var waits []float64
	for _, o := range p.outcomes {
		if o.err != nil {
			return false
		}
		waits = append(waits, float64(o.start-o.due)/1e6)
	}
	q := len(waits) / 4
	return q > 0 && median(waits[len(waits)-q:]) <= median(waits[:q])+5
}

// fleetTraced runs the phase untraced for half the time and traced and
// profiled for the other half, then climbs the rate ladder untraced, and
// re-simulates the traced phase's misses cell by cell for the simulator's
// per-layer counters.
func fleetTraced(r *run, f *fleetRig, rng *rand.Rand, refs map[string][]byte) error {
	tr := r.tr
	half := r.seconds / 2

	pa, due, err := f.schedule(rng, r.seed, fleetRate, half)
	if err != nil {
		return err
	}
	r.tr = nil
	f.run(nil, pa, due)
	r.tr = tr

	pb, due, err := f.schedule(rng, r.seed, fleetRate, half)
	if err != nil {
		return err
	}
	m0, err := f.client.Metrics(context.Background())
	if err != nil {
		return err
	}
	t0 := tr.snapshot()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	f.run(tr, pb, due)
	res, err := prof.stop()
	if err != nil {
		return err
	}
	m1, err := f.client.Metrics(context.Background())
	if err != nil {
		return err
	}
	spans := tr.snapshot()[len(t0):]

	best := 0.0
	for _, rate := range ladderRates {
		p, due, err := f.schedule(rng, r.seed, rate, ladderRung)
		if err != nil {
			return err
		}
		f.run(nil, p, due)
		r.attempted += len(p.reqs)
		r.failed += r.checkPhase(p, refs)
		ok := meetsSLO(p)
		r.logf("ladder %4.0f rps: %d requests, meets SLO: %v", rate, len(p.reqs), ok)
		if !ok {
			break
		}
		best = rate
	}

	r.attempted += len(pa.reqs) + len(pb.reqs)
	r.failed += r.checkPhase(pa, refs) + r.checkPhase(pb, refs)
	r.logClasses("untraced", pa)
	r.logClasses("traced", pb)

	// Dispatches are relayed, never simulated: no simulate span may carry
	// a dispatch request's key.
	simulated := map[string]bool{}
	for _, s := range spans {
		if s.Name == "service.simulate" {
			simulated[s.Key] = true
		}
	}
	for _, q := range pb.reqs {
		if q.class == dispatch && simulated[q.hash] {
			r.problem("dispatch request %s has a service.simulate span", q.hash[:12])
		}
	}

	// Re-simulate the traced misses cell by cell: the simulator layers'
	// counters and spans, and a second check of each response.
	var k simCounters
	for i, q := range pb.reqs {
		if q.class != miss || pb.results[i] == nil {
			continue
		}
		o := q.canon.Options
		c := cell{app: q.canon.App, scheme: config.IDYLL(),
			seed: experiment.CellSeed(o.Seed, q.canon.Figure, q.canon.App), scale: o}
		st, err := simulate(tr, 0, c)
		var served service.CellResult
		if err == nil {
			err = json.Unmarshal(pb.results[i].Result, &served)
		}
		if err != nil || uint64(served.ExecCycles) != uint64(st.ExecCycles) || served.Accesses != st.Accesses ||
			served.Migrations != st.Migrations || served.InvalReceived != st.InvalReceived {
			r.failed++
			r.problem("miss %s: served result disagrees with a cell-by-cell run (%v)", q.hash[:12], err)
			continue
		}
		k.add(st)
	}

	r.setSimLayers(k, tr.snapshot(), res)
	reqMS := 0.0
	for c := range classNames {
		reqMS += sum(durations(spans, "request."+classNames[c]))
	}
	lat := pb.classLatencies()
	hitP50, dispP50 := median(lat[hit]), median(lat[dispatch])
	missN := float64(pb.count(miss))
	r.set("runtime.allocs_per_access", ratio(float64(res.mallocs), float64(pb.missAccesses())))
	r.set("service.submit_share", ratio(sum(durations(spans, "service.submit")), reqMS))
	r.set("service.wait_share", ratio(sum(durations(spans, "service.wait")), reqMS))
	r.set("service.simulate_share", ratio(sum(durations(spans, "service.simulate")), reqMS))
	// The coordinator's rollup exposes no cache_hits of its own; every
	// submission its cache does not answer is accepted as a job.
	delta := func(name string) float64 { return m1["idylld_"+name] - m0["idylld_"+name] }
	n := float64(len(pb.reqs))
	r.set("service.coord_hit_ratio", ratio(n-delta("jobs_accepted"), n))
	if got, want := delta("fleet_results_cache"), float64(pb.count(dispatch)); got != want {
		r.problem("/metrics counts %v worker cache answers for %v dispatches", got, want)
	}
	r.set("fleet.dispatch_overhead_share", ratio(dispP50-hitP50, dispP50))
	r.set("fleet.replications_per_miss",
		ratio(delta("fleet_replications"), missN))
	var lags []float64
	for _, o := range pb.outcomes {
		lags = append(lags, float64(o.lag())/1e6)
	}
	r.set("loadgen.lag_p99_ms", quantile(sortedCopy(lags), 0.99))
	r.set("loadgen.max_rps_at_slo", best)
	var all [2][]float64
	for c := range classNames {
		all[0] = append(all[0], pa.classLatencies()[c]...)
		all[1] = append(all[1], pb.classLatencies()[c]...)
	}
	r.set("trace.overhead_pct", 100*(ratio(median(all[1]), median(all[0]))-1))
	r.finishTrace(res)
	return nil
}
