package main

import (
	"math"
	"os"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples a reported tail must leave beyond it: a
// percentile with fewer samples past it describes a handful of outliers,
// not a tail.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by linear
// interpolation between closest ranks. An empty input yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns values sorted ascending without touching the input.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

// beyond counts the samples of n that lie past percentile p (0 < p < 100):
// above it for p ≥ 50, below it for p < 50.
func beyond(n int, p float64) int {
	if p < 50 {
		p = 100 - p
	}
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// tailPercentile is the reporting rule for tails: the highest of the
// candidate percentiles that still has at least minBeyond samples beyond
// it. ok is false when not even the median qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []float64{99.9, 99, 90, 50} {
		if beyond(n, c) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// distribution summarises a latency sample set in milliseconds.
type distribution struct {
	N             int
	P10, P50, P90 float64
	// Supported reports whether p10 and p90 each have minBeyond samples
	// beyond them.
	Supported bool
}

func summarize(ms []float64) distribution {
	s := sortedCopy(ms)
	return distribution{
		N: len(s), P10: quantile(s, 0.10), P50: quantile(s, 0.50), P90: quantile(s, 0.90),
		Supported: beyond(len(s), 90) >= minBeyond,
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// usage is a snapshot of the process's own resource counters.
type usage struct {
	cpu    time.Duration // user + system CPU time
	maxRSS int64         // peak resident set, bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss * 1024, // Linux reports kilobytes
	}
}

// startPhase returns the process's resource counters at the start of a
// measured phase. It first returns freed memory to the OS and resets the
// peak RSS, so that the peak read at the end is the phase's own and not
// left over from set-up.
func (r *run) startPhase() usage {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.logf("cannot reset the peak RSS, so peak_rss_mb includes set-up: %v", err)
	}
	return readUsage()
}

// setupRepeats is how many times each workload sets up per run; setup_s is
// the median, so one slow set-up on a shared machine does not move it.
const setupRepeats = 3

// timedSetup runs setup setupRepeats times, tearing down every state but
// the last, and returns that state with the median set-up time in seconds.
func timedSetup[S any](setup func() (S, error), teardown func(S)) (S, float64, error) {
	var (
		state S
		secs  []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && teardown != nil {
			teardown(state)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return state, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		state = s
	}
	return state, median(secs), nil
}
