package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"time"
)

// The svc-fleet load generator is open-loop: requests are due on a fixed
// Poisson schedule whatever the system does, as independent users would
// send them. Each request is timed from when it was due, so a stall also
// charges the wait it imposes on the requests queued behind it.

// clock abstracts time for the load generator so its timing rule can be
// tested without sleeping.
type clock interface {
	now() time.Duration // since the schedule's origin
	sleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

// spinWindow is how long before a due time wallClock stops sleeping and
// spins: timer wake-ups run late by up to a millisecond, which would
// otherwise be charged to sub-millisecond requests.
const spinWindow = time.Millisecond

func (c wallClock) now() time.Duration { return time.Since(c.t0) }
func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now() - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// poissonSchedule returns due times of a Poisson process at rate per
// second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// outcome is one request's timing relative to the schedule's origin.
type outcome struct {
	due, start, end time.Duration
	// free is when the connection that sent it became free; a request
	// that starts after both its due time and free time was sent late by
	// the generator itself.
	free time.Duration
	err  error
}

// latency is measured from the due time, not the send time.
func (o outcome) latency() time.Duration { return o.end - o.due }

// lag is how late the generator sent the request: the time past the later
// of its due time and its connection becoming free. Large lags mean the
// generator, not the system, was the bottleneck, and the run is invalid.
func (o outcome) lag() time.Duration {
	ready := o.due
	if o.free > ready {
		ready = o.free
	}
	return o.start - ready
}

// openLoop sends request i at due[i] over conns connections, each running
// one request at a time, and returns every outcome in schedule order.
// Requests are taken in schedule order: when every connection is busy, the
// next request waits for the first free one and its latency grows.
func openLoop(due []time.Duration, conns int, clk clock, do func(i int) error) []outcome {
	out := make([]outcome, len(due))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Duration(0)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(due) {
					return
				}
				clk.sleepUntil(due[i])
				start := clk.now()
				err := do(i)
				end := clk.now()
				out[i] = outcome{due: due[i], start: start, end: end, free: free, err: err}
				free = end
			}
		}()
	}
	wg.Wait()
	return out
}
