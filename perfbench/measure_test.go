package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestBeyondCountsBothTails(t *testing.T) {
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", got)
	}
	if got := beyond(100, 10); got != 10 {
		t.Errorf("beyond(100, p10) = %d, want 10 below", got)
	}
	if got := beyond(99, 90); got != 9 {
		t.Errorf("beyond(99, p90) = %d, want 9", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.1: 1.4, 0.9: 4.6} {
		if got := quantile(s, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
}

func TestSummarizeFlagsUnsupportedTails(t *testing.T) {
	ms := make([]float64, 99)
	for i := range ms {
		ms[i] = float64(i)
	}
	if summarize(ms).Supported {
		t.Error("99 samples cannot support p90 with 10 beyond")
	}
	if !summarize(append(ms, 99)).Supported {
		t.Error("100 samples support p90 with 10 beyond")
	}
}

func TestTimedSetupReportsMedianAndKeepsLastState(t *testing.T) {
	calls, torn := 0, 0
	state, secs, err := timedSetup(func() (int, error) {
		calls++
		time.Sleep(time.Duration(calls) * time.Millisecond)
		return calls, nil
	}, func(int) { torn++ })
	if err != nil {
		t.Fatal(err)
	}
	if calls != setupRepeats || torn != setupRepeats-1 || state != setupRepeats {
		t.Fatalf("calls=%d torn=%d state=%d", calls, torn, state)
	}
	if secs < 0.002 {
		t.Fatalf("median set-up %v s is below the middle set-up's sleep", secs)
	}
}
