// Package walker models the GPU Memory Management Unit (GMMU) of §3.1: a
// bounded page-walk queue, a shared page-walk cache (PWC) over the non-leaf
// page-table levels, and a pool of page-table walker threads. Demand
// translation walks, PTE-invalidation walks, and PTE-update walks all share
// these resources — that sharing is precisely the contention the paper
// quantifies (§5.2) and IDYLL removes.
package walker

import (
	"idyll/internal/cache"
	"idyll/internal/memdef"
	"idyll/internal/pagetable"
	"idyll/internal/sim"
	"idyll/internal/stats"
)

// Config sets the GMMU's geometry and timing (Table 2 defaults: 8 walker
// threads, 100 cycles per level, 128-entry PWC, 64-entry walk queue).
type Config struct {
	Threads       int
	QueueCapacity int
	LevelLatency  sim.VTime // memory access for one page-table level
	PWCHitLatency sim.VTime // PWC lookup time on a hit
	PWCEntries    int
	PWCWays       int
	// RetryDelay is how long a rejected (queue-full) request waits before
	// re-attempting enqueue.
	RetryDelay sim.VTime
}

// DefaultConfig returns Table 2's GMMU configuration.
func DefaultConfig() Config {
	return Config{
		Threads:       8,
		QueueCapacity: 64,
		LevelLatency:  100,
		PWCHitLatency: 1,
		PWCEntries:    128,
		PWCWays:       8,
		RetryDelay:    8,
	}
}

// pwcKey identifies a cached page-table entry: its level and the VPN prefix
// that selects it within the level.
type pwcKey struct {
	level  int
	prefix uint64
}

// GMMU is one GPU's memory-management unit.
type GMMU struct {
	engine  *sim.Engine
	pt      *pagetable.Table
	cfg     Config
	pwc     *cache.SetAssoc[pwcKey, struct{}]
	walkers *sim.Resource
	st      *stats.Sim
	// scratch is the walk-visit buffer reused across walks: visits are
	// consumed synchronously by walkCost before any other walk can start,
	// so one buffer per GMMU suffices and the walk path never allocates.
	scratch []pagetable.Visit
}

// New builds a GMMU over the GPU's local page table. st may be shared with
// other components of the same system.
func New(engine *sim.Engine, pt *pagetable.Table, cfg Config, st *stats.Sim) *GMMU {
	sets := cfg.PWCEntries / cfg.PWCWays
	if sets < 1 {
		sets = 1
	}
	g := &GMMU{
		engine: engine,
		pt:     pt,
		cfg:    cfg,
		pwc: cache.New[pwcKey, struct{}](sets, cfg.PWCWays, func(k pwcKey) uint64 {
			return k.prefix*31 + uint64(k.level)
		}),
		walkers: sim.NewResource(engine, cfg.Threads, cfg.QueueCapacity),
		st:      st,
	}
	return g
}

// PageTable exposes the GPU's local page table.
func (g *GMMU) PageTable() *pagetable.Table { return g.pt }

// SetOnIdle installs a hook fired whenever a walker thread frees with an
// empty walk queue — IDYLL's trigger for draining the IRMB (§6.3).
func (g *GMMU) SetOnIdle(fn func()) { g.walkers.OnIdle = fn }

// Idle reports whether a walker is free and the queue is empty.
func (g *GMMU) Idle() bool { return g.walkers.Idle() }

// QueueLen reports the current walk-queue depth.
func (g *GMMU) QueueLen() int { return g.walkers.QueueLen() }

// walkCost charges PWC lookups/updates for one walk of vpn and returns the
// total walk latency. The PWC caches non-leaf levels only; the leaf PTE
// access always goes to memory, so a batch of invalidations sharing all
// non-leaf levels costs one full walk plus one leaf access per extra page —
// the amortization lazy invalidation exploits (§6.3).
func (g *GMMU) walkCost(visits []pagetable.Visit) sim.VTime {
	var total sim.VTime
	for _, v := range visits {
		g.st.WalkerLevelVisits++
		if v.Level == 1 {
			total += g.cfg.LevelLatency
			continue
		}
		key := pwcKey{level: v.Level, prefix: v.Prefix}
		g.st.PWCLookups++
		if _, ok := g.pwc.Lookup(key); ok {
			g.st.PWCHits++
			total += g.cfg.PWCHitLatency
		} else {
			total += g.cfg.LevelLatency
			g.pwc.Insert(key, struct{}{})
		}
	}
	return total
}

// fullWalkCost is walkCost for a walk that must touch every level (PTE
// updates create the radix path as they descend).
func (g *GMMU) fullWalkCost(vpn memdef.VPN) sim.VTime {
	levels := g.pt.Levels()
	visits := g.scratch[:0]
	for i := 0; i < levels; i++ {
		level := levels - i
		visits = append(visits, pagetable.Visit{Level: level, Prefix: memdef.LevelPrefix(vpn, level)})
	}
	g.scratch = visits
	return g.walkCost(visits)
}

// enqueue submits a job to the walk queue with automatic retry on
// backpressure. A rejected job polls the queue every RetryDelay; its one
// retry closure is built on the first rejection and rescheduled as is, so
// a job rejected N times allocates no more than a job rejected once.
func (g *GMMU) enqueue(job func(release func())) {
	if g.walkers.Acquire(job) {
		return
	}
	g.st.WalkQueueRejects++
	var retry func()
	retry = func() {
		if g.walkers.Acquire(job) {
			return
		}
		g.st.WalkQueueRejects++
		g.engine.Schedule(g.cfg.RetryDelay, retry)
	}
	g.engine.Schedule(g.cfg.RetryDelay, retry)
}

// Demand performs a demand translation walk for vpn. done receives the PTE
// found (possibly invalid — stale entries still terminate a full walk) and
// whether any leaf entry existed at all.
func (g *GMMU) Demand(vpn memdef.VPN, done func(pte pagetable.PTE, ok bool)) {
	g.st.WalkerDemand++
	g.enqueue(func(release func()) {
		visits, pte, ok := g.pt.WalkInto(g.scratch, vpn)
		g.scratch = visits
		cost := g.walkCost(visits)
		g.engine.Schedule(cost, func() {
			release()
			done(pte, ok)
		})
	})
}

// Invalidate performs an invalidation walk for vpn (baseline behaviour: the
// GPU walks its table "even if [the PTE] were invalid to begin with", §2).
// done receives whether a valid PTE was actually invalidated.
func (g *GMMU) Invalidate(vpn memdef.VPN, done func(wasValid bool)) {
	g.st.WalkerInval++
	g.enqueue(func(release func()) {
		visits, _, _ := g.pt.WalkInto(g.scratch, vpn)
		g.scratch = visits
		cost := g.walkCost(visits)
		g.st.InvalBusy += cost
		g.engine.Schedule(cost, func() {
			wasValid := g.pt.Invalidate(vpn)
			if wasValid {
				g.st.InvalNecessary++
			} else {
				g.st.InvalUnnecessary++
			}
			release()
			done(wasValid)
		})
	})
}

// InvalidateBatchFiltered writes back a batch of buffered invalidations on a
// single walker thread, sequentially, so consecutive pages reuse the
// just-filled PWC entries (§6.3 "IRMB writeback"). done fires when the whole
// batch has been applied. Two optional hooks refine it: skip (checked
// immediately before each page's walk) suppresses pages whose invalidation
// became obsolete — e.g. a fresh mapping arrived for them while the batch
// was queued, so invalidating would destroy the new translation (§6.3
// "update the PTE directly ... without invalidating it") — and each fires as
// every individual page's invalidation lands, so the caller can retire its
// stale-PTE marker at the precise cycle the page table becomes clean.
func (g *GMMU) InvalidateBatchFiltered(vpns []memdef.VPN, skip func(memdef.VPN) bool,
	each func(vpn memdef.VPN, wasValid bool), done func()) {
	if len(vpns) == 0 {
		if done != nil {
			g.engine.Schedule(0, done)
		}
		return
	}
	g.st.WalkerInval += uint64(len(vpns))
	g.enqueue(func(release func()) {
		g.batchStep(vpns, 0, skip, each, release, done)
	})
}

// batchStep applies the i'th invalidation of a batch and chains to the next.
func (g *GMMU) batchStep(vpns []memdef.VPN, i int, skip func(memdef.VPN) bool,
	each func(memdef.VPN, bool), release func(), done func()) {
	if i >= len(vpns) {
		release()
		if done != nil {
			done()
		}
		return
	}
	if skip != nil && skip(vpns[i]) {
		g.batchStep(vpns, i+1, skip, each, release, done)
		return
	}
	visits, _, _ := g.pt.WalkInto(g.scratch, vpns[i])
	g.scratch = visits
	cost := g.walkCost(visits)
	g.st.InvalBusy += cost
	g.engine.Schedule(cost, func() {
		wasValid := g.pt.Invalidate(vpns[i])
		if wasValid {
			g.st.InvalNecessary++
		} else {
			g.st.InvalUnnecessary++
		}
		if each != nil {
			each(vpns[i], wasValid)
		}
		g.batchStep(vpns, i+1, skip, each, release, done)
	})
}

// Update installs a translation via the walk queue — "the new mapping is
// directly inserted into the page table walk queue for PTE update" (§6.3).
func (g *GMMU) Update(vpn memdef.VPN, pte pagetable.PTE, done func()) {
	g.UpdateUnless(vpn, pte, nil, done)
}

// UpdateUnless is Update with a staleness guard: checked immediately before
// the mapping is written, a true result skips the install. The GPU uses it
// to cancel updates whose translation an invalidation has overtaken while
// the update sat in the walk queue — without the guard, a late update would
// resurrect a dead translation.
func (g *GMMU) UpdateUnless(vpn memdef.VPN, pte pagetable.PTE, stale func() bool, done func()) {
	g.st.WalkerUpdate++
	g.enqueue(func(release func()) {
		cost := g.fullWalkCost(vpn)
		g.engine.Schedule(cost, func() {
			if stale == nil || !stale() {
				g.pt.Map(vpn, pte)
			}
			release()
			if done != nil {
				done()
			}
		})
	})
}

// PWCHitRate reports the page-walk-cache hit rate.
func (g *GMMU) PWCHitRate() float64 { return g.pwc.HitRate() }

// QueueStats reports accepted, queued, and rejected walk requests.
func (g *GMMU) QueueStats() (total, queued, rejected uint64) {
	return g.walkers.TotalJobs(), g.walkers.QueuedJobs(), g.walkers.Rejected()
}
