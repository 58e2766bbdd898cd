package main

import (
	"fmt"
	"reflect"
	"time"

	"idyll/internal/config"
	"idyll/internal/experiment"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// The cells-first-touch workload is the interactive idyllsim case: single
// default-scale cells under the first-touch scheme, one at a time on the
// serial engine, in a closed loop with one client. No page ever migrates,
// so flush, driver, IRMB and directory do no work; engine, TLBs, data
// caches and the walker do all of it.

// firstTouchSeeds is how many trace seeds each application cycles through.
const firstTouchSeeds = 4

// firstTouchCell is operation i of the loop: the apps in figure order,
// then the next trace seed.
func firstTouchCell(seed uint64, i int) cell {
	apps := workload.AppAbbrs()
	app := apps[i%len(apps)]
	variant := (i / len(apps)) % firstTouchSeeds
	return cell{app: app, scheme: config.FirstTouchScheme(),
		seed:  experiment.CellSeed(seed, fmt.Sprintf("cells-first-touch/%d", variant), app),
		scale: experiment.DefaultOptions()}
}

// firstTouchLoop runs cells i = 0, 1, ... in a closed loop until the
// deadline (or n cells when n > 0). Every repetition of a cell must give
// the stats of its first run, and no cell may migrate a page. It returns
// the latency of each cell that passed, and the distinct cells' stats by
// key.
func (r *run) firstTouchLoop(deadline time.Duration, n int) ([]float64, map[string]*stats.Sim, simCounters) {
	var (
		lat   []float64
		seen  = map[string]*stats.Sim{}
		k     simCounters
		start = time.Now()
		last  = start // of the last speed pause
	)
	for i := 0; (n > 0 && i < n) || (n == 0 && keepGoing(start, i, deadline)); i++ {
		if !r.traced && time.Since(last) >= speedInterval {
			start = start.Add(r.speedPause()) // the deadline leaves the pause out
			last = time.Now()
		}
		c := firstTouchCell(r.seed, i)
		sp := r.tr.begin("cell", c.key(), 0)
		t0 := time.Now()
		st, err := simulate(r.tr, sp, c)
		ms := msSince(t0)
		r.tr.end(sp)
		r.attempted++
		if err != nil {
			r.failed++
			r.problem("cell %s: %v", c.key(), err)
			continue
		}
		k.add(st)
		prev, repeat := seen[c.key()]
		switch {
		case st.Migrations != 0:
			r.failed++
			r.problem("cell %s migrated %d pages under first-touch", c.key(), st.Migrations)
			continue
		case repeat && !reflect.DeepEqual(prev, st):
			r.failed++
			r.problem("cell %s: repeated run gave different stats", c.key())
			continue
		case !repeat:
			seen[c.key()] = st
		}
		lat = append(lat, ms)
	}
	return lat, seen, k
}

// crossCheckCells compares the distinct cells' stats with the other run
// mode's record of the same seed.
func (r *run) crossCheckCells(seen map[string]*stats.Sim) {
	outputs := make(map[string]string, len(seen))
	for key, st := range seen {
		outputs[key] = digest(st)
	}
	diff, err := r.crossCheck(outputs)
	if err != nil {
		r.problem("cross-run record: %v", err)
		return
	}
	for _, key := range diff {
		r.failed++
		r.problem("cell %s: stats differ from the other run mode", key)
	}
}

func runFirstTouch(r *run) error {
	_, setupS, err := timedSetup(func() (struct{}, error) { return struct{}{}, warmUp() }, nil)
	if err != nil {
		return err
	}
	if r.traced {
		return firstTouchTraced(r)
	}
	u0 := r.startPhase()
	lat, seen, k := r.firstTouchLoop(r.seconds, 0)
	u1 := readUsage()
	r.crossCheckCells(seen)

	r.logf("%d cells (%d distinct), %d accesses", len(lat), len(seen), k.accesses)
	r.setEndToEnd(setupS, u0, u1, summarize(lat), k.accesses)
	return nil
}

// firstTouchTraced runs one untraced pass over every app, then the traced,
// profiled loop, then every distinct cell again with the translation
// checker on; all three must agree on every cell's stats.
func firstTouchTraced(r *run) error {
	apps := len(workload.AppAbbrs())
	tr := r.tr
	r.tr = nil
	untracedLat, untraced, _ := r.firstTouchLoop(0, apps)
	r.tr = tr

	prof, err := startProfile()
	if err != nil {
		return err
	}
	lat, seen, k := r.firstTouchLoop(r.seconds, 0)
	res, err := prof.stop()
	if err != nil {
		return err
	}
	for key, st := range untraced {
		if t, ok := seen[key]; ok && !reflect.DeepEqual(st, t) {
			r.failed++
			r.problem("cell %s: traced stats differ from the untraced run", key)
		}
	}
	for i := 0; i < len(seen) && i < apps*firstTouchSeeds; i++ {
		c := firstTouchCell(r.seed, i)
		c.check = true
		st, err := simulate(nil, 0, c)
		if err != nil {
			r.failed++
			r.problem("cell %s with the translation checker: %v", c.key(), err)
		} else if !reflect.DeepEqual(st, seen[c.key()]) {
			r.failed++
			r.problem("cell %s: stats change with the translation checker on", c.key())
		}
	}
	r.crossCheckCells(seen)
	if k.migrations != 0 {
		r.problem("first-touch cells migrated %d pages", k.migrations)
	}

	spans := r.tr.snapshot()
	r.setSimLayers(k, spans, res)
	r.set("runtime.allocs_per_access", ratio(float64(res.mallocs), float64(k.accesses)))
	r.set("loadgen.lag_p99_ms", closedLoopLag(spans, "cell"))
	n := min(len(lat), len(untracedLat)) // the same cells, traced and not
	r.set("trace.overhead_pct", 100*(ratio(sum(lat[:n]), sum(untracedLat[:n]))-1))
	r.finishTrace(res)
	return nil
}
