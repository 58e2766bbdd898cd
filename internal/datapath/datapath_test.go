package datapath

import (
	"testing"

	"idyll/internal/memdef"
	"idyll/internal/sim"
	"idyll/internal/stats"
)

func newHier(cus int) (*sim.Engine, *Hierarchy, *stats.Sim) {
	e := sim.NewEngine()
	st := stats.NewSim()
	return e, New(e, cus, DefaultConfig(), st), st
}

func runAccess(t *testing.T, e *sim.Engine, h *Hierarchy, cu int, pa memdef.PAddr, write bool) sim.VTime {
	t.Helper()
	start := e.Now()
	var took sim.VTime = -1
	h.Access(cu, pa, write, func() { took = e.Now() - start })
	e.Run()
	if took < 0 {
		t.Fatal("access never completed")
	}
	return took
}

func TestColdMissGoesToDRAM(t *testing.T) {
	e, h, _ := newHier(1)
	cfg := DefaultConfig()
	want := cfg.L1HitLatency + cfg.L2HitLatency + cfg.DRAMLatency
	if got := runAccess(t, e, h, 0, 0x1000, false); got != want {
		t.Fatalf("cold access took %d, want %d", got, want)
	}
}

func TestL1HitAfterFill(t *testing.T) {
	e, h, st := newHier(1)
	runAccess(t, e, h, 0, 0x1000, false)
	got := runAccess(t, e, h, 0, 0x1000, false)
	if got != DefaultConfig().L1HitLatency {
		t.Fatalf("L1 hit took %d", got)
	}
	if st.L1DHits != 1 {
		t.Fatalf("L1 hits = %d", st.L1DHits)
	}
}

func TestSameLineDifferentWordHits(t *testing.T) {
	e, h, _ := newHier(1)
	runAccess(t, e, h, 0, 0x1000, false)
	if got := runAccess(t, e, h, 0, 0x1030, false); got != DefaultConfig().L1HitLatency {
		t.Fatalf("same-line access took %d", got)
	}
}

func TestL2SharedAcrossCUs(t *testing.T) {
	e, h, st := newHier(2)
	runAccess(t, e, h, 0, 0x2000, false)
	cfg := DefaultConfig()
	// CU1 misses its private L1 but hits the shared L2.
	if got := runAccess(t, e, h, 1, 0x2000, false); got != cfg.L1HitLatency+cfg.L2HitLatency {
		t.Fatalf("cross-CU access took %d", got)
	}
	if st.L2DHits != 1 {
		t.Fatalf("L2 hits = %d", st.L2DHits)
	}
}

func TestInvalidatePageDropsLines(t *testing.T) {
	e, h, _ := newHier(1)
	for off := memdef.PAddr(0); off < 4096; off += 64 {
		runAccess(t, e, h, 0, 0x10000+off, false)
	}
	n := h.InvalidatePage(0x10000)
	if n == 0 {
		t.Fatal("no lines invalidated")
	}
	// Next access to the page must miss to DRAM again.
	cfg := DefaultConfig()
	if got := runAccess(t, e, h, 0, 0x10000, false); got != cfg.L1HitLatency+cfg.L2HitLatency+cfg.DRAMLatency {
		t.Fatalf("post-invalidate access took %d", got)
	}
}

func TestInvalidatePageLeavesNeighbours(t *testing.T) {
	e, h, _ := newHier(1)
	runAccess(t, e, h, 0, 0x10000, false) // page A
	runAccess(t, e, h, 0, 0x11000, false) // page B
	h.InvalidatePage(0x10000)
	if got := runAccess(t, e, h, 0, 0x11000, false); got != DefaultConfig().L1HitLatency {
		t.Fatalf("neighbour page evicted: access took %d", got)
	}
}

func TestHitRates(t *testing.T) {
	e, h, _ := newHier(1)
	runAccess(t, e, h, 0, 0, false)
	runAccess(t, e, h, 0, 0, false)
	if hr := h.L1HitRate(); hr != 0.5 {
		t.Fatalf("L1 hit rate = %v", hr)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	e, h, _ := newHier(1)
	// A write then read should both complete; dirty state is internal but
	// the write path must not corrupt residency.
	runAccess(t, e, h, 0, 0x3000, true)
	if got := runAccess(t, e, h, 0, 0x3000, false); got != DefaultConfig().L1HitLatency {
		t.Fatalf("read after write took %d", got)
	}
}

// BenchmarkInvalidatePage measures the migration flush of one page: the
// L2 is probed or scanned, and only the L1s the residency index names are
// touched. Refilling the caches between flushes is not timed.
func BenchmarkInvalidatePage(b *testing.B) {
	const cus = 64
	cases := []struct {
		name    string
		page    memdef.PageSize
		fillCUs int
	}{
		{"4KB-one-L1", memdef.Page4K, 1},
		{"4KB-all-L1s", memdef.Page4K, cus},
		{"2MB-all-L1s", memdef.Page2M, cus},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.PageBytes = tc.page.Bytes()
			e := sim.NewEngine()
			h := New(e, cus, cfg, stats.NewSim())
			const base = memdef.PAddr(1 << 30)
			// Each filling CU fills its whole L1 from the page (a 4 KB page
			// has fewer lines than an L1, so those repeat).
			lines := min(tc.page.Bytes(), uint64(cfg.L1Bytes)) / memdef.CachelineBytes
			nop := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for cu := 0; cu < tc.fillCUs; cu++ {
					for ln := uint64(0); ln < lines; ln++ {
						off := (uint64(cu)*lines + ln) % (tc.page.Bytes() / memdef.CachelineBytes)
						h.Access(cu, base+memdef.PAddr(off*memdef.CachelineBytes), false, nop)
					}
				}
				e.Run()
				b.StartTimer()
				if h.InvalidatePage(base) == 0 {
					b.Fatal("flush removed nothing")
				}
			}
		})
	}
}
