package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. The engine carries no
// instrumentation, so the traced run decomposes an operation by replay:
// after the end-to-end call it calls each lower layer's exported functions
// on the same inputs, one after another. Spans of one operation share
// OpID; Parent is the layer that would have made the call in the real
// nesting (the declared order server → core/vitri → index →
// btree/sig/geometry), not the span that was open at the time.
type span struct {
	Name   string             `json:"name"`
	OpID   int                `json:"op_id"`
	Parent string             `json:"parent,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	// ms collects every span's duration by name, for the medians the
	// per-layer metrics are made of.
	ms map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ms: make(map[string][]float64)}
}

// do times f as one span and returns its duration in milliseconds.
func (tr *tracer) do(name, parent string, op int, f func()) float64 {
	start := time.Since(tr.t0)
	f()
	end := time.Since(tr.t0)
	tr.spans = append(tr.spans, span{Name: name, OpID: op, Parent: parent, Start: int64(start), End: int64(end)})
	d := float64(end-start) / 1e6
	tr.ms[name] = append(tr.ms[name], d)
	return d
}

// counts attaches the counts taken at the boundary the last span crossed.
func (tr *tracer) counts(c map[string]float64) {
	tr.spans[len(tr.spans)-1].Counts = c
}

// med is the median duration, in milliseconds, of the spans called name.
func (tr *tracer) med(name string) float64 { return median(tr.ms[name]) }

// write dumps the spans, once, as one JSON document.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// printSelfTimes prints, per span name, the median span time and the
// median self time: a span's duration minus the durations of the spans
// of the same operation that name it as parent.
func (tr *tracer) printSelfTimes(e *env) {
	type key struct {
		op   int
		name string
	}
	children := make(map[key]float64)
	for _, s := range tr.spans {
		if s.Parent != "" {
			children[key{s.OpID, s.Parent}] += float64(s.End-s.Start) / 1e6
		}
	}
	self := make(map[string][]float64)
	parent := make(map[string]string)
	for _, s := range tr.spans {
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start)/1e6-children[key{s.OpID, s.Name}])
		parent[s.Name] = s.Parent
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	e.printf("%-28s %-22s %6s %12s %12s\n", "span", "parent", "n", "median_ms", "self_ms")
	for _, n := range names {
		e.printf("%-28s %-22s %6d %12.4f %12.4f\n", n, parent[n], len(self[n]), tr.med(n), median(self[n]))
	}
}

func defaultTraceOut(cfg config) string {
	return filepath.Join(".bench_out", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
}
