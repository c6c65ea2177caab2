package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// (a search, a sweep, a job) share Trace; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs call the same code. It is safe for
// concurrent use (the serve workload traces from two client goroutines).
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(trace, name string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// totals returns the summed duration of every span with the given name.
func (r *recorder) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// selfStat is one span name's aggregate: call count, total time, and self
// time — the span's duration minus the part of it that child spans cover.
type selfStat struct {
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates self time by span name and by layer (the name's
// prefix before the first '.'), keyed "layer:<layer>" for the latter.
func (r *recorder) selfTimes() map[string]selfStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]selfStat{}
	for _, s := range r.spans {
		total := s.End - s.Start
		self := total - covered(children[s.ID])
		for _, key := range []string{s.Name, "layer:" + layerOf(s.Name)} {
			st := out[key]
			st.Calls++
			st.TotalMs += float64(total) / 1e6
			st.SelfMs += float64(self) / 1e6
			out[key] = st
		}
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				sum += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write stores the spans as JSON under $BENCH_OUT/trace (default
// .bench_build/trace) and returns the file path.
func (r *recorder) write(workload string, seed uint64) (string, error) {
	dir := os.Getenv("BENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
