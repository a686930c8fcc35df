package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or job
// share Req; Parent is the id of the span that caused it (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// bare is wall time the run spent untraced on purpose (the bare
	// half of a traced run); coverage leaves it out.
	bare time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// stop closes span id.
func (t *tracer) stop(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns f's wall time, which callers
// use for rates whether or not tracing is on.
func (t *tracer) timed(name string, parent int, req int64, f func()) time.Duration {
	id := t.start(name, parent, req)
	begin := time.Now()
	f()
	d := time.Since(begin)
	t.stop(id)
	return d
}

// layerTime is one span name's aggregate.
type layerTime struct {
	Self  time.Duration
	Count int
}

// selfTimes aggregates self time by span name: a span's duration minus
// the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		lt := out[s.Name]
		lt.Self += time.Duration(s.End - s.Start - unionLen(iv))
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// untraced excludes d of deliberately untraced wall time from coverage.
func (t *tracer) untraced(d time.Duration) {
	if t != nil {
		t.mu.Lock()
		t.bare += d
		t.mu.Unlock()
	}
}

// coverage is the share of the tracer's lifetime so far, less its
// deliberately untraced time, that root spans cover.
func (t *tracer) coverage() float64 {
	wall := int64(time.Since(t.t0) - t.bare)
	t.mu.Lock()
	defer t.mu.Unlock()
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Parent == 0 && s.End >= 0 {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	if wall <= 0 {
		return 0
	}
	return float64(unionLen(iv)) / float64(wall)
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
