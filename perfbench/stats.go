package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// latencies is a sample of durations.
type latencies []time.Duration

// pct returns the nearest-rank p-th percentile (0 < p <= 100) and how
// many samples lie strictly beyond its rank. An empty sample gives 0.
func (l latencies) pct(p float64) (time.Duration, int) {
	if len(l) == 0 {
		return 0, 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

func (l latencies) size() int { return len(l) }

// mean is the mean latency; an empty sample gives 0.
func (l latencies) mean() time.Duration {
	var s time.Duration
	for _, d := range l {
		s += d
	}
	return s / time.Duration(max(len(l), 1))
}

// median returns the median of xs (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// A histogram's bins grow geometrically: bin 0 holds latencies below
// histMin, and bin b >= 1 holds [histMin·histGrowth^(b-1),
// histMin·histGrowth^b), up to about 2 ms. Longer latencies are kept
// exactly.
const (
	histMin    = time.Microsecond
	histGrowth = 1.005
	histBins   = 1524
)

var logGrowth = math.Log(histGrowth)

// histogram records latencies in about 6 KB, so a faster program (more
// samples) or a longer run does not grow the process it is measured in.
// A percentile is exact to half a per cent.
type histogram struct {
	mu   sync.Mutex
	bins []uint32
	over latencies // latencies beyond the last bin
	n    int
	sum  time.Duration
}

// newHistogram allocates a histogram and touches all of its memory, so
// it is resident before a peak-RSS reset and never grows after one.
func newHistogram() *histogram {
	h := &histogram{bins: make([]uint32, histBins)}
	for i := range h.bins {
		h.bins[i] = 0
	}
	return h
}

// histIndex is the bin d falls in; histBins or more means beyond them.
func histIndex(d time.Duration) int {
	if d < histMin {
		return 0
	}
	return 1 + int(math.Log(float64(d)/float64(histMin))/logGrowth)
}

// histValue is bin b's representative latency: its geometric middle.
func histValue(b int) time.Duration {
	if b == 0 {
		return histMin / 2
	}
	return time.Duration(float64(histMin) * math.Pow(histGrowth, float64(b)-0.5))
}

func (h *histogram) add(d time.Duration) {
	b := histIndex(d)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	h.sum += d
	if b < histBins {
		h.bins[b]++
	} else {
		h.over = append(h.over, d)
	}
}

// merge adds o's samples to h.
func (h *histogram) merge(o *histogram) {
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.over = append(h.over, o.over...)
	h.n += o.n
	h.sum += o.sum
}

// pct returns the nearest-rank p-th percentile (0 < p <= 100), as its
// bin's representative latency or exactly beyond the bins, and how many
// samples lie beyond its rank. An empty histogram gives 0.
func (h *histogram) pct(p float64) (time.Duration, int) {
	if h.n == 0 {
		return 0, 0
	}
	rank := max(int(math.Ceil(p/100*float64(h.n))), 1)
	seen := 0
	for i, c := range h.bins {
		if seen += int(c); seen >= rank {
			return histValue(i), h.n - rank
		}
	}
	over := append(latencies(nil), h.over...)
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	return over[rank-seen-1], h.n - rank
}

func (h *histogram) size() int { return h.n }

// mean is the mean latency, exact.
func (h *histogram) mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// percentiler is a latency sample: exact or a histogram.
type percentiler interface {
	pct(p float64) (time.Duration, int)
	size() int
}

// percentileSummary records a latency sample's size and percentile
// sample counts in the run details.
func percentileSummary(l percentiler) map[string]any {
	p50, b50 := l.pct(50)
	p99, b99 := l.pct(99)
	return map[string]any{
		"samples":        l.size(),
		"p50_ms":         ms(p50),
		"beyond_p50":     b50,
		"p99_ms":         ms(p99),
		"beyond_p99":     b99,
		"p99_meets_rule": b99 >= 10,
	}
}

// resetPeakRSS returns freed heap to the OS and resets this process's
// RSS high-water mark (VmHWM), so the peak a workload reports is taken
// over its timed traffic, not over set-up. It reports whether the
// kernel accepted the reset.
func resetPeakRSS() bool {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// rssEvery is how often watchRSS samples resident sets.
const rssEvery = 50 * time.Millisecond

// rssWatch samples this process's resident set plus its children's
// until stopped and keeps the peak. VmHWM covers only this process,
// and sandbox workers come and go.
type rssWatch struct {
	stop, done chan struct{}
	peakKB     int64
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			kb := procKB("/proc/self/status", "VmRSS:")
			for _, pid := range childPIDs() {
				kb += procKB(filepath.Join("/proc", pid, "status"), "VmRSS:")
			}
			w.peakKB = max(w.peakKB, kb)
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// peakMB stops sampling and returns the peak in MiB, never below this
// process's own high-water mark since the last resetPeakRSS.
func (w *rssWatch) peakMB() float64 {
	close(w.stop)
	<-w.done
	return float64(max(w.peakKB, procKB("/proc/self/status", "VmHWM:"))) / 1024
}

// procKB reads a "<field> <n> kB" line of a /proc status file.
func procKB(path, field string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// childPIDs lists this process's children from every thread's
// /proc children file.
func childPIDs() []string {
	tasks, _ := filepath.Glob("/proc/self/task/*/children")
	var out []string
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		out = append(out, strings.Fields(string(b))...)
	}
	return out
}
