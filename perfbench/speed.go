package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by tens
// of percent over minutes. To keep runs comparable, every timed run also
// times a fixed reference kernel — pure Go, nothing from the repository —
// and reports times scaled by how much slower or faster than nominal the
// kernel ran. The kernel runs in a child process, and only while the
// workload is stopped and the benchmark's heap collected: before set-up,
// after the workload has finished, and every speedInterval of the
// measured phase (the pause is left out of what the phase measures). A change to
// the repository neither competes with it for CPU nor leaves it garbage,
// and the kernel's CPU time and memory are not the benchmark's. So a
// change can move the scale only through the host.
//
// The kernel has two shapes. The simulation workloads run one goroutine
// that computes, and are scaled by the compute kernel. svc-fleet's
// requests spend most of their time in loopback HTTP hops between
// goroutines, which the host's load slows differently from computing;
// svc-fleet is scaled by the service kernel, a request relayed through
// two loopback HTTP servers.

// refShape is one shape of the reference kernel.
type refShape struct {
	// nominalMS is the median wall time of one run on the 2-core machine
	// the bounds in BENCHMARK.json were set on. Reported times are scaled
	// to this speed.
	nominalMS float64
	// runs is how many timed runs each sample takes.
	runs int
	// child times n runs after a warm-up and prints each in milliseconds.
	child func(n int)
}

var refShapes = map[string]refShape{
	"compute": {nominalMS: 24, runs: 8, child: computeChild},
	"service": {nominalMS: 0.6, runs: 24, child: serviceChild},
}

// speedInterval is how often a measured phase stops for a sample.
const speedInterval = 3 * time.Second

// kernelFlag makes the program a kernel child: it times the kernel of the
// shape it names and prints each run's wall time in milliseconds.
const kernelFlag = "ref-kernel"

// newKernelTable builds the kernel's fixed pointer-chasing permutation,
// 8 MiB: larger than the private caches, as the simulator's heap is.
func newKernelTable() []int32 {
	const n = 1 << 21
	p := make([]int32, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- { // Fisher–Yates with a fixed xorshift stream
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

type kernelNode struct {
	next *kernelNode
	v    [3]int
}

var kernelSink int

// refKernel is fixed work shaped like the simulator's, in two halves of
// about equal time: a compute-bound half (dependent loads within 256 KiB,
// hash-map updates, a sort) and a memory-bound half (dependent loads over
// the whole table, small-object allocation). On this host the two halves
// drift differently with load, and their sum tracks a simulation cell
// better than either alone.
func refKernel(table []int32) {
	m := make(map[int32]int, 4096)
	x := int32(0)
	for i := 0; i < 400000; i++ {
		x = table[x] & (1<<16 - 1)
		m[x&4095] += i
	}
	s := make([]int32, 20000)
	for i := range s {
		s[i] = table[(i*7919)&(1<<16-1)]
	}
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })

	y := int32(0)
	for i := 0; i < 80000; i++ {
		y = table[y]
	}
	var head *kernelNode
	for i := 0; i < 27000; i++ {
		head = &kernelNode{next: head, v: [3]int{i}}
		if i%64 == 0 {
			head = nil
		}
	}
	kernelSink += int(x) + int(y) + len(m) + int(s[0])
	if head != nil {
		kernelSink++
	}
}

// kernelChild is the child's side: it times the shape's runs.
func kernelChild(shape string) error {
	sh, ok := refShapes[shape]
	if !ok {
		return fmt.Errorf("unknown reference kernel %q", shape)
	}
	sh.child(sh.runs)
	return nil
}

// computeChild times the compute kernel: one untimed warm-up run, then n
// timed runs, each printed on its own line.
func computeChild(n int) {
	table := newKernelTable()
	refKernel(table)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		refKernel(table)
		fmt.Println(msSince(t0))
	}
}

// serviceChild times n requests, after a warm-up of 4, each sent after a
// short idle gap as an open loop's requests are. A request is a small JSON
// POST to a front server, which relays it twice to a back server that
// hashes it and answers in JSON: standard library only, no repository
// code.
func serviceChild(n int) {
	back := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sum := sha256.Sum256(body)
		_ = json.NewEncoder(w).Encode(map[string]string{"hash": hex.EncodeToString(sum[:])})
	}))
	defer back.Close()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for i := 0; i < 2; i++ {
			if err := post(back.URL, body); err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
		}
		_, _ = w.Write(body)
	}))
	defer front.Close()
	body := []byte(`{"kind":"cell","app":"PR","scheme":"idyll"}`)
	for i := -4; i < n; i++ {
		time.Sleep(3 * time.Millisecond)
		t0 := time.Now()
		if err := post(front.URL, body); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: service kernel:", err)
			os.Exit(1)
		}
		if i >= 0 {
			fmt.Println(msSince(t0))
		}
	}
}

// post sends body to url and reads the whole answer.
func post(url string, body []byte) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return nil
}

// speed collects reference-kernel timings over a run.
type speed struct {
	shape   string    // a key of refShapes
	samples []float64 // kernel wall ms
}

// sample collects the heap, then times the kernel in a child process. Call
// it only while no workload code runs.
func (s *speed) sample() error {
	runtime.GC()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "--"+kernelFlag, s.shape)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	for _, f := range strings.Fields(string(out)) {
		ms, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("reference kernel: %w", err)
		}
		s.samples = append(s.samples, ms)
	}
	if runs := refShapes[s.shape].runs; len(s.samples)%runs != 0 {
		return fmt.Errorf("reference kernel: %d timings, want a multiple of %d", len(s.samples), runs)
	}
	return nil
}

// speedPause samples the host's speed in the middle of a measured phase,
// which the caller has stopped, and returns the wall time the pause took
// for the caller to leave out; its CPU time goes to r.pausedCPU.
func (r *run) speedPause() time.Duration {
	u0, t0 := readUsage(), time.Now()
	if err := r.speed.sample(); err != nil {
		r.problem("%v", err)
	}
	r.pausedCPU += readUsage().cpu - u0.cpu
	return time.Since(t0)
}

// scale is nominal ÷ observed kernel time: multiply a measured time by it
// to get the time at nominal host speed, divide a rate by it.
func (s *speed) scale() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return refShapes[s.shape].nominalMS / median(s.samples)
}
