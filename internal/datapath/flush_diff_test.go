package datapath

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"idyll/internal/checkpoint"
	"idyll/internal/memdef"
	"idyll/internal/sim"
	"idyll/internal/stats"
)

// refInvalidatePage is the reference flush: it scans every set of the L2
// and of every L1, ignoring the residency index, and removes each line of
// the page with Invalidate (which keeps the survivors' LRU order).
func refInvalidatePage(h *Hierarchy, base memdef.PAddr) int {
	lo := h.line(base)
	hi := h.line(base + memdef.PAddr(h.cfg.PageBytes) - 1)
	n := 0
	for _, c := range append(h.l1[:len(h.l1):len(h.l1)], h.l2) {
		var doomed []uint64
		c.Range(func(ln uint64, _ lineState) bool {
			if ln >= lo && ln <= hi {
				doomed = append(doomed, ln)
			}
			return true
		})
		for _, ln := range doomed {
			c.Invalidate(ln)
		}
		n += len(doomed)
	}
	return n
}

func saveBytes(h *Hierarchy) []byte {
	w := checkpoint.NewWriter()
	h.SaveState(w)
	return w.Finish()
}

// checkIndexCovers asserts the residency invariant: every L1 holding a line
// of a page has its mask bit set in that page's entry.
func checkIndexCovers(t *testing.T, h *Hierarchy) {
	t.Helper()
	for cu, c := range h.l1 {
		c.Range(func(ln uint64, _ lineState) bool {
			page := ln >> (h.pageShift - h.lineShift)
			if h.resident[page]&(1<<(cu%64)) == 0 {
				t.Fatalf("CU %d holds line %#x of page %#x, but the index has no bit for it", cu, ln, page)
			}
			return true
		})
	}
}

// TestInvalidatePageMatchesFullScan runs randomized Access/InvalidatePage
// scripts against a hierarchy flushed by the full-scan reference and
// asserts, after every flush, the same count and byte-identical contents.
// Halfway through, the indexed hierarchy is forked through
// SaveState/RestoreState, so the second half runs on a rebuilt index.
func TestInvalidatePageMatchesFullScan(t *testing.T) {
	for _, page := range []memdef.PageSize{memdef.Page4K, memdef.Page2M} {
		for _, cus := range []int{1, 64, 80} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/cus%d/seed%d", page, cus, seed), func(t *testing.T) {
					runFlushScript(t, page, cus, seed)
				})
			}
		}
	}
}

func runFlushScript(t *testing.T, page memdef.PageSize, cus int, seed int64) {
	cfg := DefaultConfig()
	cfg.PageBytes = page.Bytes()
	build := func() (*sim.Engine, *Hierarchy) {
		e := sim.NewEngine()
		return e, New(e, cus, cfg, stats.NewSim())
	}
	eGot, got := build()
	eRef, ref := build()

	// A handful of pages on two devices keeps flushes landing on resident
	// lines; lines are drawn from a window of each page so that 2 MB pages
	// still see reuse.
	r := rand.New(rand.NewSource(seed))
	pages := make([]memdef.PAddr, 6)
	for i := range pages {
		pfn := memdef.MakePFN(memdef.GPUDevice(i%2), uint64(r.Intn(1<<10)))
		pages[i] = memdef.PAddr(uint64(pfn) << page.OffsetBits())
	}
	window := min(page.Bytes()/memdef.CachelineBytes, 512)
	nop := func() {}

	const steps = 4000
	flushes, removed := 0, 0
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			eGot, got = forkHierarchy(t, got, cus, cfg)
		}
		base := pages[r.Intn(len(pages))]
		if r.Intn(40) == 0 {
			n, want := got.InvalidatePage(base), refInvalidatePage(ref, base)
			if n != want {
				t.Fatalf("step %d: InvalidatePage(%#x) = %d lines, reference %d", step, base, n, want)
			}
			if !bytes.Equal(saveBytes(got), saveBytes(ref)) {
				t.Fatalf("step %d: cache contents differ from the reference after flushing %#x", step, base)
			}
			flushes++
			removed += n
			continue
		}
		pa := base + memdef.PAddr(uint64(r.Int63n(int64(window)))*memdef.CachelineBytes)
		cu, write := r.Intn(cus), r.Intn(4) == 0
		got.Access(cu, pa, write, nop)
		ref.Access(cu, pa, write, nop)
		if step%256 == 0 {
			eGot.Run()
			eRef.Run()
			checkIndexCovers(t, got)
		}
	}
	if flushes == 0 || removed == 0 {
		t.Fatalf("script's %d flushes removed %d lines: nothing was compared", flushes, removed)
	}
	if !bytes.Equal(saveBytes(got), saveBytes(ref)) {
		t.Fatal("final cache contents differ from the reference")
	}
}

// forkHierarchy checkpoints h into a freshly built hierarchy, whose
// residency index RestoreState must rebuild from the L1 contents.
func forkHierarchy(t *testing.T, h *Hierarchy, cus int, cfg Config) (*sim.Engine, *Hierarchy) {
	t.Helper()
	rd, err := checkpoint.NewReader(saveBytes(h))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	fork := New(e, cus, cfg, stats.NewSim())
	fork.RestoreState(rd)
	if err := rd.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(fork), saveBytes(h)) {
		t.Fatal("fork does not reproduce the checkpointed contents")
	}
	checkIndexCovers(t, fork)
	return e, fork
}
