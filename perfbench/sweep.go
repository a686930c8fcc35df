package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"time"

	"delinq/internal/bench"
	"delinq/internal/tables"
	"delinq/internal/workerpool"
)

// goldenPath is the committed output of `delinq table all`.
const goldenPath = "tables_output.txt"

// A full sweep compiles each distinct build and simulates each distinct
// run exactly once; the memo counters must say so.
const (
	sweepBuilds = 29
	sweepRuns   = 51
)

// sweepSample names the benchmarks the traced sweep takes apart layer
// by layer (unoptimised, Input 1, every standard geometry): a strided
// integer kernel, a pointer-chasing one and a struct-walking one.
var sweepSample = []string{"008.espresso", "181.mcf", "022.li"}

// runSweep measures cold `table all`: each sweep starts from empty
// build, run and training memos and renders every table with one
// worker per CPU, byte-compared to the golden output.
func runSweep(r *run) error {
	ctx := context.Background()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Set-up is what a `table all` user pays before simulating: process
	// start (runtime and package init), then empty memos and the golden
	// output to compare against.
	setups, err := r.repeatSetup(func() error {
		if err := exec.Command(exe, "probe").Run(); err != nil {
			return fmt.Errorf("start-up probe: %w", err)
		}
		bench.ResetCache()
		tables.ResetTraining()
		golden, err = os.ReadFile(goldenPath)
		return err
	}, nil)
	if err != nil {
		return err
	}

	var lat latencies
	var walls []float64
	ok := 0
	r.info["rss_peak_reset"] = resetPeakRSS()
	rssW := watchRSS()
	start := time.Now()
	deadline := start.Add(time.Duration(r.cfg.seconds) * time.Second)
	// An untraced run makes at least size.minSweeps sweeps and more
	// while its seconds last; a traced run makes exactly two.
	sweeps := r.cfg.size.minSweeps
	if r.tr != nil {
		sweeps = 2
	}
	for i := 0; i < sweeps || (r.tr == nil && time.Now().Before(deadline)); i++ {
		// A traced run times its first sweep bare and traces the second;
		// the difference is the tracing overhead.
		var tr *tracer
		if i == 1 {
			tr = r.tr
		}
		d, err := sweepOnce(ctx, tr, int64(i), r.cfg.nproc, golden)
		r.attempted++
		lat = append(lat, d)
		walls = append(walls, d.Seconds())
		if err != nil {
			r.failed++
			r.fail("sweep %d: %v", i, err)
			continue
		}
		ok++
	}
	elapsed := time.Since(start)
	r.set("setup_s", "s", median(setups))
	r.set("sweep_s", "s", median(walls))
	// A run makes few sweeps: p50 is their median and p99 their
	// slowest (the nearest rank).
	p99, _ := lat.pct(99)
	r.set("p50_ms", "ms", 1000*median(walls))
	r.set("p99_ms", "ms", ms(p99))
	r.set("throughput_rps", "1/s", float64(ok)/elapsed.Seconds())
	r.set("max_rss_mb", "MiB", rssW.peakMB())
	r.info["workers"] = r.cfg.nproc
	r.info["sweep_s"] = walls
	r.info["setup_s"] = setups
	r.info["latency"] = percentileSummary(lat)

	if r.tr == nil {
		return nil
	}
	st := r.tr.selfTimes()
	r.set("tables.preload_s", "s", st["tables.preload"].Self.Seconds())
	r.set("tables.render_ms", "ms", ms(st["tables.render"].Self))
	b, rn := bench.CacheStats()
	r.set("bench.build_misses", "count", float64(b.Misses))
	r.set("bench.run_misses", "count", float64(rn.Misses))
	r.set("trace.overhead_pct", "%", 100*(walls[1]-walls[0])/walls[0])
	r.tr.untraced(lat[0])

	// Take the sample apart layer by layer, from cold memos so the
	// benchmark-path fill (workerpool.Execute) compiles and simulates.
	bench.ResetCache()
	var jobs []layerJob
	for _, name := range sweepSample {
		b := bench.ByName(name)
		if b == nil {
			return fmt.Errorf("sweep sample benchmark %s is not registered", name)
		}
		jobs = append(jobs, layerJob{
			name:   name,
			source: b.Source,
			args:   b.Input1,
			geoms:  tables.StdGeoms,
			job:    workerpool.Job{Kind: workerpool.JobAnalyze, Benchmark: name},
		})
	}
	cnt := r.layerPass(ctx, jobs)
	r.setLayerMetrics(cnt)
	r.checkCounts(cnt)
	r.idle("server.overhead_ms", "rescache.hit_ratio", "rescache.evictions", "server.shed",
		"workerpool.roundtrip_ms", "workerpool.spawns_per_kreq", "loadgen.late_p99_ms")
	r.set("trace.coverage", "ratio", r.tr.coverage())
	return nil
}

// sweepOnce renders every table from cold memos and checks the result:
// no degraded benchmark, output byte-identical to the golden, and
// exactly the expected numbers of builds and runs. With a tracer the
// preload and the render are timed as separate spans.
func sweepOnce(ctx context.Context, tr *tracer, i int64, workers int, golden []byte) (time.Duration, error) {
	bench.ResetCache()
	tables.ResetTraining()
	var buf bytes.Buffer
	var rep *tables.Report
	var err error
	t := time.Now()
	if tr != nil {
		tr.timed("tables.preload", 0, i, func() { err = tables.Preload(ctx, workers, nil) })
		if err == nil {
			tr.timed("tables.render", 0, i, func() { rep, err = tables.RenderAll(ctx, &buf, workers) })
		}
	} else {
		rep, err = tables.RenderAll(ctx, &buf, workers)
	}
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	if len(rep.Degraded) > 0 {
		return d, fmt.Errorf("%d degraded benchmarks, first %v", len(rep.Degraded), rep.Degraded[0])
	}
	if err := checkTables(buf.Bytes(), golden); err != nil {
		return d, err
	}
	b, rn := bench.CacheStats()
	if b.Misses != sweepBuilds || rn.Misses != sweepRuns {
		return d, fmt.Errorf("memo misses: %d builds and %d runs, want %d and %d", b.Misses, rn.Misses, sweepBuilds, sweepRuns)
	}
	return d, nil
}

// checkTables compares a rendered sweep with the golden output.
func checkTables(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	line := 1 + bytes.Count(want[:commonPrefix(got, want)], []byte("\n"))
	return fmt.Errorf("tables differ from %s at line %d (%d vs %d bytes)", goldenPath, line, len(got), len(want))
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// expectedSweepCounts pins the simulator's exact counts over
// sweepSample. They move only when the compiler, the VM or the cache
// model changes behaviour, and then the golden tables move too.
var expectedSweepCounts = layerCounts{
	insts:    25687557,
	accesses: 11909887,
	loads:    1400,
	misses:   []int64{500208, 485934, 461057, 315343, 502537, 500165},
}

// checkCounts fails the run when the sweep sample's exact counts differ
// from the pinned ones.
func (r *run) checkCounts(cnt layerCounts) {
	r.info["counts"] = map[string]any{"insts": cnt.insts, "accesses": cnt.accesses, "loads": cnt.loads, "misses": cnt.misses}
	want := expectedSweepCounts
	r.attempted++
	if cnt.insts != want.insts || cnt.accesses != want.accesses || cnt.loads != want.loads || !equalInts(cnt.misses, want.misses) {
		r.failed++
		r.fail("sweep sample counts %+v differ from the pinned %+v", cnt, want)
	}
}
