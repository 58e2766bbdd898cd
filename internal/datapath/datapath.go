// Package datapath models the data side of each GPU once translation has
// succeeded: per-CU L1 vector caches, the shared L2 cache, and local DRAM
// (Table 2: 16 KB/4-way L1V$, 256 KB/16-way L2$, 4 GB device memory).
//
// Remote data is not modelled here: per §3.2 it is fetched from the remote
// GPU at cacheline granularity and bypasses the local cache hierarchy, so
// the GPU model charges it as interconnect round-trip + remote DRAM latency.
package datapath

import (
	"math/bits"

	"idyll/internal/cache"
	"idyll/internal/memdef"
	"idyll/internal/sim"
	"idyll/internal/stats"
)

// Config sets cache geometry and latency.
type Config struct {
	L1Bytes      int
	L1Ways       int
	L1HitLatency sim.VTime
	L2Bytes      int
	L2Ways       int
	L2HitLatency sim.VTime
	DRAMLatency  sim.VTime
	LineBytes    int
	// PageBytes is the machine's page size: the unit InvalidatePage flushes.
	PageBytes uint64
}

// DefaultConfig returns the Table 2 data-path configuration.
func DefaultConfig() Config {
	return Config{
		L1Bytes: 16 << 10, L1Ways: 4, L1HitLatency: 4,
		L2Bytes: 256 << 10, L2Ways: 16, L2HitLatency: 30,
		DRAMLatency: 200,
		LineBytes:   memdef.CachelineBytes,
		PageBytes:   memdef.Page4K.Bytes(),
	}
}

type lineState struct {
	dirty bool
}

// Hierarchy is one GPU's local data-cache hierarchy.
type Hierarchy struct {
	engine *sim.Engine
	cfg    Config
	l1     []*cache.SetAssoc[uint64, lineState] // per CU
	l2     *cache.SetAssoc[uint64, lineState]
	st     *stats.Sim

	lineShift uint
	pageShift uint
	pageLines uint64
	// resident maps a physical page number to a mask of the CUs whose L1
	// may hold a line of it (bit cu%64). It is a superset — L1 evictions
	// leave their bits set, so a stale bit costs one wasted probe — and
	// lets InvalidatePage skip every L1 that never touched the page. A
	// page's entry goes when the page is flushed.
	resident map[uint64]uint64
}

// New builds the hierarchy for numCUs compute units.
func New(engine *sim.Engine, numCUs int, cfg Config, st *stats.Sim) *Hierarchy {
	if cfg.LineBytes < 1 || cfg.PageBytes < uint64(cfg.LineBytes) {
		panic("datapath: page smaller than a cacheline")
	}
	shift := uint(bits.Len(uint(cfg.LineBytes - 1)))
	pageShift := uint(bits.Len64(cfg.PageBytes - 1))
	idx := func(k uint64) uint64 { return k }
	l1Sets := cfg.L1Bytes / cfg.LineBytes / cfg.L1Ways
	if l1Sets < 1 {
		l1Sets = 1
	}
	l2Sets := cfg.L2Bytes / cfg.LineBytes / cfg.L2Ways
	if l2Sets < 1 {
		l2Sets = 1
	}
	h := &Hierarchy{
		engine: engine, cfg: cfg, st: st,
		lineShift: shift, pageShift: pageShift, pageLines: cfg.PageBytes >> shift,
		resident: make(map[uint64]uint64),
	}
	h.l1 = make([]*cache.SetAssoc[uint64, lineState], numCUs)
	for i := range h.l1 {
		h.l1[i] = cache.New[uint64, lineState](l1Sets, cfg.L1Ways, idx)
	}
	h.l2 = cache.New[uint64, lineState](l2Sets, cfg.L2Ways, idx)
	return h
}

// line returns the cacheline key of a physical address.
func (h *Hierarchy) line(pa memdef.PAddr) uint64 { return uint64(pa) >> h.lineShift }

// fillL1 inserts line ln into cu's L1 and records the CU in the residency
// index of the line's page.
func (h *Hierarchy) fillL1(cu int, ln uint64, st lineState) {
	h.l1[cu].Insert(ln, st)
	h.markResident(cu, ln)
}

func (h *Hierarchy) markResident(cu int, ln uint64) {
	page := ln >> (h.pageShift - h.lineShift)
	bit := uint64(1) << (cu % 64)
	if m := h.resident[page]; m&bit == 0 {
		h.resident[page] = m | bit
	}
}

// Access performs a local data access by cu to physical address pa and
// invokes done when the data is available (write completion is acknowledged
// at the same point; stores are modelled write-allocate/write-back).
func (h *Hierarchy) Access(cu int, pa memdef.PAddr, write bool, done func()) {
	ln := h.line(pa)
	l1 := h.l1[cu]
	h.st.L1DLookups++
	if st, ok := l1.Lookup(ln); ok {
		h.st.L1DHits++
		if write && !st.dirty {
			l1.Insert(ln, lineState{dirty: true}) // already resident: index unchanged
		}
		h.engine.Schedule(h.cfg.L1HitLatency, done)
		return
	}
	h.st.L2DLookups++
	if _, ok := h.l2.Lookup(ln); ok {
		h.st.L2DHits++
		h.fillL1(cu, ln, lineState{dirty: write})
		h.engine.Schedule(h.cfg.L1HitLatency+h.cfg.L2HitLatency, done)
		return
	}
	// Miss everywhere: DRAM fill. Write-back traffic of dirty victims is
	// absorbed in DRAMLatency; the experiments are translation-bound.
	h.l2.Insert(ln, lineState{})
	h.fillL1(cu, ln, lineState{dirty: write})
	h.engine.Schedule(h.cfg.L1HitLatency+h.cfg.L2HitLatency+h.cfg.DRAMLatency, done)
}

// InvalidatePage drops every cached line of the page at base (page-aligned),
// called when a page migrates away so stale data cannot be read locally. It
// reports how many lines were dropped. Only the L2 and the L1s the residency
// index names are flushed; CUs that share a mask bit (cu%64) are all probed.
func (h *Hierarchy) InvalidatePage(base memdef.PAddr) int {
	lo := h.line(base)
	hi := lo + h.pageLines - 1
	n := cache.InvalidateRange(h.l2, lo, hi)
	page := uint64(base) >> h.pageShift
	mask := h.resident[page]
	delete(h.resident, page)
	for ; mask != 0; mask &= mask - 1 {
		for cu := bits.TrailingZeros64(mask); cu < len(h.l1); cu += 64 {
			n += cache.InvalidateRange(h.l1[cu], lo, hi)
		}
	}
	return n
}

// L1HitRate reports the aggregate L1 hit rate.
func (h *Hierarchy) L1HitRate() float64 {
	var hits, lookups uint64
	for _, c := range h.l1 {
		hits += c.Hits()
		lookups += c.Lookups()
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// L2HitRate reports the shared L2 hit rate.
func (h *Hierarchy) L2HitRate() float64 { return h.l2.HitRate() }
