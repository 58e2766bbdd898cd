package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Key ties together the
// spans of one cell or request — for service requests it is the spec's
// content hash, which both the coordinator-side client and the worker's
// run wrapper know, so a worker span joins its request's tree.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, key string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStat aggregates every closed span of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the time covered by child spans.
	SelfMS float64 `json:"self_ms"`
	P50MS  float64 `json:"p50_ms"`
}

// spanStats folds spans by name, with each span's self time.
func spanStats(spans []span) map[string]spanStat {
	child := make(map[int]int64) // span ID → time covered by its children
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := make(map[string][]float64)
	out := make(map[string]spanStat)
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-child[s.ID]) / 1e6
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], float64(d)/1e6)
	}
	for name, st := range out {
		st.P50MS = median(durs[name])
		out[name] = st
	}
	return out
}

// durations returns the durations in milliseconds of the closed spans
// named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeTrace stores the spans, their per-name summary and the run's
// counters as JSON files in dir.
func writeTrace(dir string, spans []span, counters map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	files := map[string]any{
		"spans.json":      spans,
		"span_stats.json": spanStats(spans),
		"counters.json":   counters,
	}
	for name, v := range files {
		raw, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
