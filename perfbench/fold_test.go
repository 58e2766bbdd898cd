package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFoldChargesSetAssocToItsCaller(t *testing.T) {
	samples := []stackSample{
		// The flush scan: SetAssoc frames under the data-cache hierarchy.
		{frames: []string{
			"idyll/internal/cache.(*SetAssoc[...]).InvalidateIf",
			"idyll/internal/datapath.(*Hierarchy).InvalidatePage",
			"idyll/internal/driver.(*Driver).migrate",
			"idyll/internal/sim.(*Engine).Run",
		}, value: 30},
		// The same SetAssoc code under a TLB probe.
		{frames: []string{
			"idyll/internal/cache.(*SetAssoc[...]).Lookup",
			"idyll/internal/tlb.(*TLB).Lookup",
			"idyll/internal/gpu.(*CU).issue",
		}, value: 10},
		// Allocation inside the walker belongs to the walker.
		{frames: []string{"runtime.mallocgc", "idyll/internal/walker.(*GMMU).retry"}, value: 5},
		// Background GC has no layer frame.
		{frames: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, value: 5},
	}
	got := foldByLayer(samples)
	want := map[string]float64{"datapath": 0.6, "tlb": 0.2, "walker": 0.1, "runtime": 0.1}
	for layer, share := range want {
		if math.Abs(got[layer]-share) > 1e-12 {
			t.Errorf("%s share = %v, want %v (all: %v)", layer, got[layer], share, got)
		}
	}
	if _, ok := got["cache"]; ok {
		t.Error("the generic cache package must never be a layer of its own")
	}
	if s := stackShare(samples, flushFunc); math.Abs(s-0.6) > 1e-12 {
		t.Errorf("flush share = %v, want 0.6", s)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"idyll/internal/sim/pdes.(*Executor).Run": "sim",
		"idyll/internal/datapath.New":             "datapath",
		"idyll/internal/cache.(*SetAssoc).Insert": "",
		"net/http.(*conn).serve":                  "",
		"main.main":                               "",
	} {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfileReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample with value %d", s.value)
		}
		for _, f := range s.frames {
			found = found || strings.HasSuffix(f, "spinForProfile")
		}
	}
	if !found {
		t.Fatalf("no sample of the spinning function among %d samples", len(samples))
	}
}
