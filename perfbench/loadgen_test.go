package main

import (
	"math/rand/v2"
	"testing"
	"time"
)

// fakeClock is a single-connection virtual clock: sleeping jumps to the due
// time plus a fixed oversleep, and a request advances it by its service
// time.
type fakeClock struct {
	t, oversleep time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(due time.Duration) {
	if due > c.t {
		c.t = due + c.oversleep
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	ms := time.Millisecond
	// Requests due every 1 ms, each taking 5 ms on the single connection:
	// each waits for the previous, and the wait counts in its latency.
	out := openLoop([]time.Duration{0, 1 * ms, 2 * ms}, 1, clk, func(int) error {
		clk.t += 5 * ms
		return nil
	})
	wantLatency := []time.Duration{5 * ms, 9 * ms, 13 * ms}
	for i, o := range out {
		if o.latency() != wantLatency[i] {
			t.Errorf("request %d latency %v, want %v (timed from due %v)", i, o.latency(), wantLatency[i], o.due)
		}
		// The connection, not the generator, made them late: no lag.
		if o.lag() != 0 {
			t.Errorf("request %d lag %v, want 0", i, o.lag())
		}
	}
}

func TestOpenLoopReportsGeneratorLag(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{oversleep: 2 * ms}
	out := openLoop([]time.Duration{10 * ms, 20 * ms}, 1, clk, func(int) error {
		clk.t += ms
		return nil
	})
	for i, o := range out {
		if o.lag() != 2*ms {
			t.Errorf("request %d lag %v, want the 2ms oversleep", i, o.lag())
		}
		if o.latency() != 3*ms {
			t.Errorf("request %d latency %v, want 3ms: 1ms of work plus 2ms sent late", i, o.latency())
		}
	}
}

func TestOpenLoopRunsEveryRequestOnce(t *testing.T) {
	due := make([]time.Duration, 50)
	for i := range due {
		due[i] = time.Duration(i) * 100 * time.Microsecond
	}
	seen := make([]int, len(due))
	out := openLoop(due, 2, wallClock{t0: time.Now()}, func(i int) error {
		seen[i]++
		return nil
	})
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("request %d ran %d times", i, n)
		}
		if out[i].start < due[i] {
			t.Fatalf("request %d started at %v, before it was due at %v", i, out[i].start, due[i])
		}
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	due := poissonSchedule(rng, 100, 100*time.Second)
	if n := len(due); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 100 s at 100/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatal("due times must not decrease")
		}
	}
}
