package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"delinq/internal/workerpool"
)

// TestMain runs from the repository root, where the golden output
// lives. Like perfbench itself, the test binary doubles as the sweep's
// start-up probe and as the isolated workload's sandbox worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		os.Exit(0)
	}
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerpool.ServeWorker(os.Stdin, os.Stdout, 0); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// toy is a workload at toy size: one second, a handful of requests
// and keys, one set-up, a short capacity probe, and one full sweep.
func toy(t *testing.T, workload string, trace bool) *run {
	return newRun(config{
		workload: workload,
		seed:     3,
		seconds:  1,
		trace:    trace,
		out:      t.TempDir(),
		nproc:    runtime.NumCPU(),
		size:     sizes{openRequests: 20, hotKeys: 8, layerJobs: 2, setupReps: 1, capacitySeconds: 0.2, minSweeps: 1},
	})
}

func TestToyWorkloads(t *testing.T) {
	cases := []struct {
		workload string
		trace    bool
	}{
		{"sweep", false},
		{"analyze-cold", false},
		{"analyze-cold", true},
		{"analyze-hot", false},
		{"analyze-hot", true},
		{"analyze-isolated", false},
	}
	for _, c := range cases {
		name := c.workload
		if c.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			r := toy(t, c.workload, c.trace)
			if err := workloads[c.workload](r); err != nil {
				t.Fatal(err)
			}
			if err := r.complete(); err != nil {
				t.Fatal(err)
			}
			if len(r.problems) > 0 || r.failed > 0 {
				t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.problems)
			}
			for name, m := range r.metrics {
				if !c.trace && m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestCheckTablesRejectsOneByteChange(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTables(bytes.Clone(golden), golden); err != nil {
		t.Fatalf("identical tables rejected: %v", err)
	}
	for _, at := range []int{0, len(golden) / 2, len(golden) - 1} {
		altered := bytes.Clone(golden)
		altered[at] ^= 1
		if checkTables(altered, golden) == nil {
			t.Errorf("tables with byte %d altered accepted", at)
		}
	}
	if checkTables(golden[:len(golden)-1], golden) == nil {
		t.Error("truncated tables accepted")
	}
}

func TestCheckReplyRejectsMismatchedBody(t *testing.T) {
	body := []byte(`{"heuristic":{"selected":1}}` + "\n")
	good := reply{status: 200, cache: "miss", body: body}
	if err := checkReply(good, body, "miss"); err != nil {
		t.Fatalf("matching reply rejected: %v", err)
	}
	if err := checkReply(good.digest(), body, "miss"); err != nil {
		t.Fatalf("matching digested reply rejected: %v", err)
	}
	altered := bytes.Clone(body)
	altered[len(altered)/2]++
	for name, rp := range map[string]reply{
		"altered body":  {status: 200, cache: "miss", body: altered},
		"short body":    {status: 200, cache: "miss", body: body[:len(body)-1]},
		"wrong verdict": {status: 200, cache: "hit", body: body},
		"error status":  {status: 500, cache: "miss", body: body},
	} {
		if checkReply(rp, body, "miss") == nil {
			t.Errorf("%s accepted", name)
		}
		if checkReply(rp.digest(), body, "miss") == nil {
			t.Errorf("digested %s accepted", name)
		}
	}
}

// TestOpenLoopChargesFromDue stalls a stub for 200ms behind the first
// request. Requests due during the stall queue behind it, and their
// latency must count from when they were due, not from when the stub
// let them in.
func TestOpenLoopChargesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	dues := make([]time.Duration, 20)
	for i := range dues {
		dues[i] = time.Duration(i) * 10 * time.Millisecond
	}
	var mu sync.Mutex
	started := make(chan struct{})
	lat, late, _ := openLoop(dues, func(i int) {
		if i == 0 {
			mu.Lock()
			close(started)
			time.Sleep(stall)
			mu.Unlock()
			return
		}
		<-started
		mu.Lock()
		mu.Unlock()
	})
	for i, due := range dues {
		if due >= stall {
			continue
		}
		if lat[i]+due < stall {
			t.Errorf("request %d due at %v: latency %v does not reach the stall's end", i, due, lat[i])
		}
		if late[i] > stall/2 {
			t.Errorf("request %d started %v late: the generator itself stalled", i, late[i])
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := newHistogram()
	var exact latencies
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * 1500 * time.Nanosecond
		if i > 995 {
			d = time.Duration(i) * time.Millisecond // beyond the bins
		}
		h.add(d)
		exact = append(exact, d)
	}
	h.add(300 * time.Nanosecond) // below the first bin's edge
	exact = append(exact, 300*time.Nanosecond)
	for _, p := range []float64{0.05, 1, 50, 99, 99.6, 100} {
		got, gb := h.pct(p)
		want, wb := exact.pct(p)
		if gb != wb || math.Abs(float64(got-want)) > 0.005*float64(want)+float64(histMin) {
			t.Errorf("p%v = %v with %d beyond, want %v with %d beyond", p, got, gb, want, wb)
		}
	}
	if h.mean() != exact.mean() {
		t.Errorf("mean %v, want %v", h.mean(), exact.mean())
	}
	all := newHistogram()
	all.merge(h)
	all.merge(h)
	if a, b := all.pct(50); a != must(h.pct(50)) || b != all.n/2 {
		t.Errorf("merged p50 %v with %d beyond, want %v with %d", a, b, must(h.pct(50)), all.n/2)
	}
}

func must(d time.Duration, _ int) time.Duration { return d }

func TestSelfTimesAndUnion(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 4, Name: "other", Start: 200, End: 250},
	}
	st := tr.selfTimes()
	if got := st["parent"].Self; got != 60 {
		t.Errorf("parent self time %d, want 60", got)
	}
	if got := st["child"]; got.Self != 50 || got.Count != 2 {
		t.Errorf("child self time %+v, want 50 over 2 spans", got)
	}
	if got := unionLen([][2]int64{{0, 100}, {200, 250}, {50, 120}}); got != 170 {
		t.Errorf("union length %d, want 170", got)
	}
}
