package walker_test

import (
	"testing"

	"idyll/internal/config"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/stats"
	"idyll/internal/system"
	"idyll/internal/walker"
	"idyll/internal/workload"
)

// retryScenario builds a GMMU with one walker thread and a one-slot queue,
// then returns a round that saturates it: one walk runs, one waits, and a
// third is rejected until the queue drains. The leaf level's latency sets
// how long that takes, and so how many times the third walk is rejected.
func retryScenario(leafLatency sim.VTime) (round func(), st *stats.Sim) {
	e := sim.NewEngine()
	pt := pagetable.New(memdef.Page4K)
	pt.Map(7, pagetable.PTE{PFN: 1, Valid: true})
	cfg := walker.DefaultConfig()
	cfg.Threads, cfg.QueueCapacity, cfg.LevelLatency = 1, 1, leafLatency
	st = stats.NewSim()
	g := walker.New(e, pt, cfg, st)
	done := func(pagetable.PTE, bool) {}
	return func() {
		for i := 0; i < 3; i++ {
			g.Demand(7, done)
		}
		e.Run()
	}, st
}

// TestRetryAllocationsIndependentOfRejects shows that a rejected walk
// allocates a constant amount however often it polls the queue again: the
// retry closure is built once per job, not once per poll.
func TestRetryAllocationsIndependentOfRejects(t *testing.T) {
	measure := func(leaf sim.VTime) (allocs float64, rejectsPerRound uint64) {
		round, st := retryScenario(leaf)
		round() // warm the PWC, the engine's node pool and the release pool
		before := st.WalkQueueRejects
		allocs = testing.AllocsPerRun(20, round)
		// AllocsPerRun makes one untimed warm-up call before its 20 runs.
		return allocs, (st.WalkQueueRejects - before) / 21
	}
	shortAllocs, shortRejects := measure(100)
	longAllocs, longRejects := measure(2000)
	if shortRejects < 10 || longRejects < 10*shortRejects {
		t.Fatalf("scenario does not saturate the queue: %d and %d rejects per round", shortRejects, longRejects)
	}
	if shortAllocs != longAllocs {
		t.Fatalf("allocations grow with rejections: %v allocs at %d rejects, %v at %d",
			shortAllocs, shortRejects, longAllocs, longRejects)
	}
}

// TestRetryScheduleUnchanged pins one small, queue-saturating cell's
// walk-queue rejections and fired engine events. Both are deterministic,
// and reusing the retry closure must not move either: the retry polls on
// the same cycles as when each poll built its own closure.
func TestRetryScheduleUnchanged(t *testing.T) {
	app, err := workload.App("MT")
	if err != nil {
		t.Fatal(err)
	}
	st, err := system.RunOnce(config.Default(), config.Baseline(), app, 16, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	const wantRejects, wantEvents = 123880, 142825
	if st.WalkQueueRejects != wantRejects || st.EngineEvents != wantEvents {
		t.Fatalf("WalkQueueRejects = %d, EngineEvents = %d; want %d, %d",
			st.WalkQueueRejects, st.EngineEvents, wantRejects, wantEvents)
	}
}
