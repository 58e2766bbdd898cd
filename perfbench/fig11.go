package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"idyll/internal/config"
	"idyll/internal/experiment"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// The fig11 workload regenerates the headline 54-cell matrix (9 apps ×
// baseline + 5 schemes) at the default scale, the way a researcher waits on
// `idyllbench -fig fig11`. The timed loop runs one cell job: with two, the
// wall time tracked the other tenants of a shared 2-core host (a quartile
// spread of 24% over 17 runs, against 5% over four serial runs). The
// traced run still times a two-job regeneration for the runner pool's
// efficiency.

// fig11SpeedEvery is how many cells of a regeneration run between speed
// pauses: about speedInterval of the serial runner.
const fig11SpeedEvery = 9

// paperIDYLLAve is the paper's average IDYLL speedup over the baseline
// (EXPERIMENTS.md, Figure 11).
const paperIDYLLAve = 1.699

// fig11Schemes are the figure's rows, in order.
func fig11Schemes() []config.Scheme {
	return []config.Scheme{config.OnlyLazy(), config.OnlyInPTE(), config.IDYLLInMem(),
		config.IDYLL(), config.ZeroLatency()}
}

func fig11Options(seed uint64, jobs int) experiment.Options {
	o := experiment.DefaultOptions()
	o.Seed, o.Jobs = seed, jobs
	return o
}

// fig11Cell is the cell of app under scheme, seeded as the suite runner
// seeds it.
func fig11Cell(seed uint64, app string, scheme config.Scheme) cell {
	return cell{app: app, scheme: scheme, seed: experiment.CellSeed(seed, "fig11", app),
		scale: fig11Options(seed, 1)}
}

// fig11Reference is the suite's fig11 table when the run uses the suite
// seed, else "".
func fig11Reference(seed uint64) (string, error) {
	if seed != suiteSeed {
		return "", nil
	}
	raw, err := os.ReadFile(filepath.Join("results", "full_suite.txt"))
	if err != nil {
		return "", err
	}
	return suiteBlock(string(raw), "fig11")
}

// warmUp runs one default-scale cell so code paths and the heap are warm
// before anything is timed.
func warmUp() error {
	_, err := simulate(nil, 0, cell{app: "MM", scheme: config.Baseline(), seed: 1,
		scale: experiment.DefaultOptions()})
	return err
}

// checkFig11 compares a rendered fig11 table with the suite reference (at
// the suite seed) and with the other run mode's table of the same seed.
func (r *run) checkFig11(rendered, ref string) bool {
	ok := true
	if ref != "" {
		if err := compareText(rendered, ref); err != nil {
			r.problem("fig11 vs results/full_suite.txt: %v", err)
			ok = false
		}
	}
	diff, err := r.crossCheck(map[string]string{"fig11": rendered})
	if err != nil {
		r.problem("cross-run record: %v", err)
		return false
	}
	if len(diff) > 0 {
		r.problem("fig11 table differs from the other run mode's table of seed %d", r.seed)
		ok = false
	}
	return ok
}

func runFig11(r *run) error {
	ref, setupS, err := timedSetup(func() (string, error) {
		ref, err := fig11Reference(r.seed)
		if err != nil {
			return "", err
		}
		return ref, warmUp()
	}, nil)
	if err != nil {
		return err
	}
	if r.traced {
		return fig11Traced(r, ref)
	}

	// The serial runner calls Progress between cells and waits for it, so
	// the speed pauses there stop the workload; their time is taken out of
	// the regeneration's wall time.
	var paused time.Duration
	o := fig11Options(r.seed, 1)
	o.Progress = func(done, _ int, _ string) {
		if done%fig11SpeedEvery == 0 {
			paused += r.speedPause()
		}
	}
	u0 := r.startPhase()
	start := time.Now()
	var (
		walls []float64 // of the regenerations that succeeded
		first *experiment.Table
	)
	for keepGoing(start, r.attempted, r.seconds) {
		runtime.GC() // each regeneration starts from a collected heap
		paused = 0
		t0 := time.Now()
		tab, err := experiment.Figure11(o)
		wall := float64((time.Since(t0) - paused).Nanoseconds()) / 1e6
		start = start.Add(paused)
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.problem("regeneration %d: %v", r.attempted, err)
		case first == nil:
			first = tab
			walls = append(walls, wall)
		case tab.Render() != first.Render():
			r.failed++
			r.problem("regeneration %d differs from the first", r.attempted)
		default:
			walls = append(walls, wall)
		}
	}
	u1 := readUsage()
	r.logf("%d regenerations in %.1fs", r.attempted, time.Since(start).Seconds())

	if first != nil {
		if ave, err := first.Get(config.IDYLL().Name, "Ave."); err == nil {
			r.logf("IDYLL Ave. %.3f, %.2f%% off the paper's %.3f", ave,
				100*math.Abs(ave-paperIDYLLAve)/paperIDYLLAve, paperIDYLLAve)
		}
		ok := r.checkFig11(first.Render(), ref) && r.recheckFig11Column(first)
		if !ok { // every regeneration rendered this table
			r.failed, walls = r.attempted, nil
		}
	}
	perCell := fig11Cell(r.seed, "MT", config.Baseline()).accesses()
	cellsRun := uint64(r.attempted) * uint64(len(workload.AppAbbrs())*(len(fig11Schemes())+1))
	r.setEndToEnd(setupS, u0, u1, summarize(walls), cellsRun*perCell)
	return nil
}

// recheckFig11Column re-simulates one app's column serially, outside the
// runner pool, and requires every speedup to equal the table's exactly.
// The column rotates with the seed.
func (r *run) recheckFig11Column(tab *experiment.Table) bool {
	apps := workload.AppAbbrs()
	app := apps[r.seed%uint64(len(apps))]
	base, err := simulate(nil, 0, fig11Cell(r.seed, app, config.Baseline()))
	if err != nil {
		r.problem("recheck %s baseline: %v", app, err)
		return false
	}
	for _, s := range fig11Schemes() {
		st, err := simulate(nil, 0, fig11Cell(r.seed, app, s))
		if err != nil {
			r.problem("recheck %s/%s: %v", app, s.Name, err)
			return false
		}
		got, err := tab.Get(s.Name, app)
		if err != nil || got != st.Speedup(base) {
			r.problem("recheck %s/%s: table %v, direct run %v (%v)", app, s.Name, got, st.Speedup(base), err)
			return false
		}
	}
	return true
}

// fig11Traced regenerates the figure once with two jobs untraced (the
// pool's wall time), then cell by cell on one goroutine with every step
// spanned and the CPU profiled, and checks that both give the same table.
func fig11Traced(r *run, ref string) error {
	t0 := time.Now()
	pooled, err := experiment.Figure11(fig11Options(r.seed, 2))
	if err != nil {
		return err
	}
	figureS := time.Since(t0).Seconds()

	apps := workload.AppAbbrs()
	// Untraced baseline cells: the reference for the tracing overhead.
	var untracedMS float64
	untraced := make([]*stats.Sim, len(apps))
	for j, app := range apps {
		c0 := time.Now()
		if untraced[j], err = simulate(nil, 0, fig11Cell(r.seed, app, config.Baseline())); err != nil {
			return err
		}
		untracedMS += msSince(c0)
	}

	prof, err := startProfile()
	if err != nil {
		return err
	}
	var (
		k        simCounters
		tracedMS float64 // traced baseline cells, as untracedMS
		rows     = make([][]float64, len(fig11Schemes()))
	)
	root := r.tr.begin("experiment.figure", "fig11", 0)
	for j, app := range apps {
		var base *stats.Sim
		for i, s := range append([]config.Scheme{config.Baseline()}, fig11Schemes()...) {
			c := fig11Cell(r.seed, app, s)
			sp := r.tr.begin("cell", c.key(), root)
			c0 := time.Now()
			st, err := simulate(r.tr, sp, c)
			r.tr.end(sp)
			r.attempted++
			if err != nil {
				r.failed++
				r.problem("cell %s: %v", c.key(), err)
				continue
			}
			k.add(st)
			if i == 0 {
				base = st
				tracedMS += msSince(c0)
				if digest(st) != digest(untraced[j]) {
					r.failed++
					r.problem("cell %s: traced stats differ from the untraced run", c.key())
				}
				continue
			}
			if base != nil {
				rows[i-1] = append(rows[i-1], st.Speedup(base))
			}
		}
	}
	r.tr.end(root)
	res, err := prof.stop()
	if err != nil {
		return err
	}

	serial := &experiment.Table{Title: pooled.Title, Caption: pooled.Caption, Columns: pooled.Columns}
	for i, s := range fig11Schemes() {
		serial.AddRow(s.Name, append(rows[i], experiment.Mean(rows[i])))
	}
	if err := compareText(serial.Render(), pooled.Render()); err != nil {
		r.failed++
		r.problem("serial cell-by-cell table vs experiment.Figure11 -jobs 2: %v", err)
	} else if !r.checkFig11(serial.Render(), ref) {
		r.failed++
	}
	if k.migrations == 0 {
		r.problem("fig11 migrated no page; the workload is meant to be migration-heavy")
	}

	spans := r.tr.snapshot()
	r.setSimLayers(k, spans, res)
	r.set("runtime.allocs_per_access", ratio(float64(res.mallocs), float64(k.accesses)))
	cellS := sum(durations(spans, "cell")) / 1e3
	r.set("experiment.pool_efficiency", ratio(cellS/2, figureS))
	r.set("loadgen.lag_p99_ms", closedLoopLag(spans, "cell"))
	r.set("trace.overhead_pct", 100*(ratio(tracedMS, untracedMS)-1))
	r.logf("pooled regeneration %.1fs, serial cells %.1fs, migrations %d", figureS, cellS, k.migrations)
	r.finishTrace(res)
	return nil
}
