package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/server"
	"delinq/internal/workerpool"
)

const (
	// openRate is analyze-cold's and analyze-isolated's Poisson arrival
	// rate: a quarter of the lower of the two daemons' measured cold
	// capacities for the generated mix (about 400 req/s isolated and 560
	// in-process on a 2-vCPU Xeon VM), so the queue stays short and
	// latency measures service, not overload. Each run records its own
	// capacity_rps.
	openRate = 100.0
	// hotSkew is the Zipf exponent of analyze-hot's key choice.
	hotSkew = 1.2
	// warmJobs is one concurrent warm-up job per admission slot of a
	// default daemon; under isolation they spawn the worker pool.
	warmJobs = 8
	// hotWindow is the window analyze-hot reports per-window medians
	// over, so one burst of interference moves one window, not the run.
	hotWindow = time.Second
	// failedLatency stands in for the latency of a failed request: a
	// failure misses every latency limit.
	failedLatency = time.Minute
)

// daemon is an in-process analysis daemon on a loopback port.
type daemon struct {
	srv    *server.Server
	base   string
	client *http.Client
	served chan error
}

func startDaemon(isolate bool) (*daemon, error) {
	s := server.New(server.Config{Addr: "127.0.0.1:0", Isolate: isolate})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512}
	d := &daemon{
		srv:    s,
		base:   "http://" + l.Addr().String(),
		client: &http.Client{Timeout: failedLatency, Transport: tr},
		served: make(chan error, 1),
	}
	go func() { d.served <- s.Serve(l) }()
	return d, nil
}

// stop drains the daemon, retires its workers and waits for Serve.
func (d *daemon) stop() error {
	// Close the client's idle connections first: the server's shutdown
	// waits up to five seconds for connections that never carried a
	// request.
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	return err
}

// reply is one HTTP exchange's outcome. A reply kept for a later check
// may hold its body's SHA-256 in sum instead of the body.
type reply struct {
	status int
	cache  string
	body   []byte
	sum    *[sha256.Size]byte
	err    error
}

// digest replaces a successful reply's body with its SHA-256, so
// replies held until the reference pass do not grow the process whose
// peak RSS is measured.
func (rp reply) digest() reply {
	if rp.status == http.StatusOK {
		sum := sha256.Sum256(rp.body)
		rp.sum, rp.body = &sum, nil
	}
	return rp
}

func (d *daemon) analyze(body []byte) reply {
	resp, err := d.client.Post(d.base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("Delinq-Cache"), body: b, err: err}
}

// scrape reads the daemon's /metrics exposition.
func (d *daemon) scrape() (map[string]int64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// requestBody renders a job as the daemon's analyze request.
func requestBody(j workerpool.Job) []byte {
	b, err := json.Marshal(struct {
		Source   string `json:"source"`
		Optimize bool   `json:"optimize"`
		Inter    bool   `json:"inter"`
		ISA      string `json:"isa"`
	}{j.Source, j.Optimize, j.Inter, j.ISA})
	if err != nil {
		panic(err) // a struct of strings and bools always marshals
	}
	return b
}

// checkReply checks one analyze response against the in-process
// pipeline's body for the same job and the expected cache verdict.
func checkReply(rp reply, want []byte, verdict string) error {
	switch {
	case rp.err != nil:
		return rp.err
	case rp.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	case rp.cache != verdict:
		return fmt.Errorf("Delinq-Cache %q, want %q", rp.cache, verdict)
	case rp.sum != nil && *rp.sum != sha256.Sum256(want):
		return fmt.Errorf("body differs from workerpool.Execute's (SHA-256 differs, want %d bytes)", len(want))
	case rp.sum == nil && !bytes.Equal(rp.body, want):
		return fmt.Errorf("body differs from workerpool.Execute's (%d vs %d bytes)", len(rp.body), len(want))
	}
	return nil
}

// setUpDaemon starts a daemon and fills every admission slot once with
// warm-up jobs that are not part of the measured stream. Under
// isolation that spawns and warms the worker pool before timing.
func setUpDaemon(isolate bool, seed int64) (*daemon, error) {
	d, err := startDaemon(isolate)
	if err != nil {
		return nil, err
	}
	errs := make([]error, warmJobs)
	var wg sync.WaitGroup
	for j := 0; j < warmJobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			rp := d.analyze(requestBody(genJob(seed, warmupIndex+j)))
			if rp.err == nil && rp.status != http.StatusOK {
				rp.err = fmt.Errorf("warm-up status %d", rp.status)
			}
			errs[j] = rp.err
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// warmupIndex puts warm-up jobs far past any measured stream.
const warmupIndex = 1 << 20

// refChunk is the most jobs one timed reference chunk holds.
const refChunk = 250

// reference runs jobs through workerpool.Execute in this process, one
// at a time — a cold pass over the workload's job list — returning each
// body and each job's Execute time from the first pass. One at a time,
// the pass moves with single-thread speed, not with how much of the
// machine's parallelism a shared host grants at the moment. The pass
// runs in chunks of at most refChunk jobs, and passes repeat until
// size.refSeconds have gone by. It also returns each chunk's wall time
// scaled to the whole list; their median is the workload's sweep_s, so
// a burst of interference moves one chunk, not the figure. Repeated
// passes must reproduce the first pass's bodies.
func (r *run) reference(ctx context.Context, jobs []workerpool.Job) ([][]byte, []time.Duration, []float64) {
	bodies := make([][]byte, len(jobs))
	durs := make([]time.Duration, len(jobs))
	var scaled []float64
	begin := time.Now()
	for pass := 0; pass == 0 || time.Since(begin).Seconds() < r.cfg.size.refSeconds; pass++ {
		for lo := 0; lo < len(jobs); lo += refChunk {
			hi := min(lo+refChunk, len(jobs))
			start := time.Now()
			r.refChunk(ctx, jobs, lo, hi, pass, bodies, durs)
			scaled = append(scaled, time.Since(start).Seconds()*float64(len(jobs))/float64(hi-lo))
		}
	}
	return bodies, durs, scaled
}

// refChunk executes jobs[lo:hi] one at a time.
func (r *run) refChunk(ctx context.Context, jobs []workerpool.Job, lo, hi, pass int, bodies [][]byte, durs []time.Duration) {
	for i := lo; i < hi; i++ {
		var jr *workerpool.JobResult
		d := r.tr.timed("check.execute", 0, int64(i), func() { jr = workerpool.Execute(ctx, jobs[i]) })
		if jr.Status != http.StatusOK {
			continue // the reply check reports it: there is no reference body
		}
		if pass == 0 {
			bodies[i], durs[i] = jr.Body, d
		} else if !bytes.Equal(bodies[i], jr.Body) {
			r.fail("job %d: repeated workerpool.Execute gave a different body", i)
		}
	}
}

// poissonDues is a seeded Poisson arrival schedule of n requests.
func poissonDues(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	dues := make([]time.Duration, n)
	t := 0.0
	for i := range dues {
		dues[i] = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / rate
	}
	return dues
}

// openLoop sends request i at dues[i] after the start, whether or not
// earlier requests have completed, and times each from when it was
// due — so a stall charges every request that waited behind it. late
// is how far behind schedule each request actually started.
func openLoop(dues []time.Duration, send func(i int)) (lat, late []time.Duration, elapsed time.Duration) {
	lat = make([]time.Duration, len(dues))
	late = make([]time.Duration, len(dues))
	start := time.Now()
	var wg sync.WaitGroup
	for i, due := range dues {
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dueAt := start.Add(dues[i])
			late[i] = time.Since(dueAt)
			send(i)
			lat[i] = time.Since(dueAt)
		}(i)
	}
	wg.Wait()
	return lat, late, time.Since(start)
}

// runAnalyzeOpen is analyze-cold (in-process fills) and
// analyze-isolated (fills in sandbox workers): the same seeded Poisson
// schedule of distinct sources, so the result cache never hits and
// every request runs the whole fill pipeline.
func runAnalyzeOpen(r *run, isolate bool) error {
	ctx := context.Background()
	n := max(int(openRate*float64(r.cfg.seconds)), r.cfg.size.openRequests)
	jobs := make([]workerpool.Job, n)
	reqs := make([][]byte, n)
	for i := range jobs {
		jobs[i] = genJob(r.cfg.seed, i)
		reqs[i] = requestBody(jobs[i])
	}
	dues := poissonDues(r.cfg.seed, n, openRate)

	d, setups, err := r.setUp(func() (*daemon, error) { return setUpDaemon(isolate, r.cfg.seed) })
	if err != nil {
		return err
	}
	before, err := d.scrape()
	if err != nil {
		d.stop()
		return err
	}
	replies := make([]reply, n)
	svc := make([]time.Duration, n)
	// A traced run sends the first half bare and traces the second; the
	// difference in mean service time is the tracing overhead.
	half := n / 2
	r.tr.untraced(dues[half])
	r.info["rss_peak_reset"] = resetPeakRSS()
	rssW := watchRSS()
	lat, late, elapsed := openLoop(dues, func(i int) {
		var tr *tracer
		if i >= half {
			tr = r.tr
		}
		svc[i] = tr.timed("http.analyze", 0, int64(i), func() { replies[i] = d.analyze(reqs[i]).digest() })
	})
	rss := rssW.peakMB()
	after, err := d.scrape()
	if err == nil {
		err = r.capacity(ctx, d)
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	want, execDurs, scaled := r.reference(ctx, jobs)
	ok := 0
	digest := sha256.New()
	for i, rp := range replies {
		r.attempted++
		if rp.sum != nil {
			digest.Write(rp.sum[:])
		}
		if err := checkReply(rp, want[i], "miss"); err != nil {
			r.failed++
			r.fail("request %d: %v", i, err)
			lat[i] = failedLatency
			continue
		}
		ok++
	}
	spawns := after["delinq_worker_spawns_total"] - before["delinq_worker_spawns_total"]
	latLate, _ := latencies(late).pct(99)

	r.set("setup_s", "s", median(setups))
	r.set("sweep_s", "s", median(scaled))
	r.info["reference_chunk_scaled_s"] = scaled
	var windows []percentiler
	for _, w := range splitEvery(lat, openWindow) {
		windows = append(windows, w)
	}
	r.setLatency(windows, latencies(lat), float64(ok)/elapsed.Seconds(), rss)
	r.info["rate_rps"] = openRate
	r.info["requests"] = n
	r.info["isolate"] = isolate
	r.info["setup_s"] = setups
	r.info["loadgen_late_p99_ms"] = ms(latLate)
	r.info["worker_spawns_timed"] = spawns
	r.info["bodies_sha256"] = hex.EncodeToString(digest.Sum(nil))
	r.info["server_metrics"] = after
	r.info["server_config"] = "defaults (MaxInflight 8, Queue 32, 1024-entry result cache)"
	if r.tr == nil {
		return nil
	}

	r.set("trace.overhead_pct", "%", overheadPct(latencies(svc[:half]).mean(), latencies(svc[half:]).mean()))
	var overhead []float64
	for i, rp := range replies {
		if rp.status == http.StatusOK {
			overhead = append(overhead, ms(svc[i]-execDurs[i]))
		}
	}
	r.set("server.overhead_ms", "ms", median(overhead))
	r.setCacheMetrics(after)
	r.set("loadgen.late_p99_ms", "ms", ms(latLate))
	r.finishAnalyzeTrace(ctx, jobs)
	return nil
}

// capacityIndex puts the capacity probe's jobs past any measured stream
// and the warm-up jobs.
const capacityIndex = 2 << 20

// capacity measures the daemon's cold capacity for the generated mix,
// after the timed traffic: one closed-loop client per admission slot
// sends fresh distinct sources for size.capacitySeconds. It records the
// fills completed per second and the open-loop rate's share of them.
// Every reply must be a miss whose body is in-process Execute's.
func (r *run) capacity(ctx context.Context, d *daemon) error {
	var mu sync.Mutex
	var replies []reply
	var idx []int
	next := 0
	start := time.Now()
	stopAt := start.Add(time.Duration(r.cfg.size.capacitySeconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < warmJobs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				rp := d.analyze(requestBody(genJob(r.cfg.seed, capacityIndex+i))).digest()
				mu.Lock()
				replies, idx = append(replies, rp), append(idx, i)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(replies) == 0 {
		return fmt.Errorf("capacity probe completed no request")
	}
	jobs := make([]workerpool.Job, next)
	for i := range jobs {
		jobs[i] = genJob(r.cfg.seed, capacityIndex+i)
	}
	want := make([][]byte, len(jobs))
	r.refChunk(ctx, jobs, 0, len(jobs), 0, want, make([]time.Duration, len(jobs)))
	ok := 0
	for k, rp := range replies {
		r.attempted++
		if err := checkReply(rp, want[idx[k]], "miss"); err != nil {
			r.failed++
			r.fail("capacity probe request %d: %v", idx[k], err)
			continue
		}
		ok++
	}
	capRPS := float64(ok) / elapsed.Seconds()
	r.info["capacity_rps"] = capRPS
	r.info["capacity_clients"] = warmJobs
	r.info["rate_share_of_capacity"] = openRate / capRPS
	return nil
}

// setUp repeats a daemon set-up (see repeatSetup), stopping each
// daemon but the last, and returns the last with every set-up's wall
// time.
func (r *run) setUp(f func() (*daemon, error)) (*daemon, []float64, error) {
	var d *daemon
	setups, err := r.repeatSetup(
		func() (err error) { d, err = f(); return err },
		func() error { return d.stop() })
	return d, setups, err
}

// setLatency sets the latency, throughput and memory metrics of a
// request workload. p50 is the median over windows of each window's
// p50, so a burst of interference moves one window, not the figure;
// p99 is the whole run's, so a tail regression in any window moves it.
// Every window keeps at least ten samples beyond its p99.
func (r *run) setLatency(windows []percentiler, all percentiler, rps float64, rss float64) {
	var p50s, p99s, beyond []float64
	for _, w := range windows {
		p50, _ := w.pct(50)
		p99, b := w.pct(99)
		p50s = append(p50s, ms(p50))
		p99s = append(p99s, ms(p99))
		beyond = append(beyond, float64(b))
	}
	p99, _ := all.pct(99)
	r.set("p50_ms", "ms", median(p50s))
	r.set("p99_ms", "ms", ms(p99))
	r.set("throughput_rps", "1/s", rps)
	r.set("max_rss_mb", "MiB", rss)
	r.info["latency"] = percentileSummary(all)
	r.info["window_p50_ms"] = p50s
	r.info["window_p99_ms"] = p99s
	r.info["window_beyond_p99"] = beyond
}

// openWindow is how many consecutive open-loop requests share a
// latency window: enough for ten samples beyond the p99 rank.
const openWindow = 1000

// splitEvery cuts lat into consecutive windows of w samples; a short
// remainder joins the last window.
func splitEvery(lat latencies, w int) []latencies {
	n := max(len(lat)/w, 1)
	out := make([]latencies, n)
	for i := range out {
		hi := (i + 1) * w
		if i == n-1 {
			hi = len(lat)
		}
		out[i] = lat[i*w : hi]
	}
	return out
}

// setCacheMetrics reports the result cache's and admission's counters.
func (r *run) setCacheMetrics(m map[string]int64) {
	hits := m["delinq_cache_hits_total"]
	lookups := hits + m["delinq_cache_misses_total"] + m["delinq_cache_coalesced_total"]
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	r.set("rescache.hit_ratio", "ratio", ratio)
	r.set("rescache.evictions", "count", float64(m["delinq_cache_evicted_size_total"]+m["delinq_cache_evicted_ttl_total"]))
	r.set("server.shed", "count", float64(m["delinq_requests_shed_total"]))
}

// finishAnalyzeTrace runs the layer pass and the worker round trip over
// the first jobs and sets the layer metrics every analyze workload
// shares.
func (r *run) finishAnalyzeTrace(ctx context.Context, jobs []workerpool.Job) {
	jobs = jobs[:min(r.cfg.size.layerJobs, len(jobs))]
	r.roundTrip(ctx, jobs)
	var ljs []layerJob
	for i, j := range jobs {
		ljs = append(ljs, layerJob{
			name:     "job " + strconv.Itoa(i),
			source:   j.Source,
			optimize: j.Optimize,
			isa:      j.ISA,
			inter:    j.Inter,
			args:     j.Args,
			geoms:    []cache.Config{cache.Baseline},
			job:      j,
		})
	}
	cnt := r.layerPass(ctx, ljs)
	r.setLayerMetrics(cnt)
	r.info["counts"] = map[string]any{"insts": cnt.insts, "accesses": cnt.accesses, "loads": cnt.loads, "misses": cnt.misses}
	b, rn := bench.CacheStats()
	r.set("bench.build_misses", "count", float64(b.Misses))
	r.set("bench.run_misses", "count", float64(rn.Misses))
	r.idle("tables.preload_s", "tables.render_ms")
	r.set("trace.coverage", "ratio", r.tr.coverage())
}

// roundTrip measures the sandbox worker layer with a pool of the
// benchmark's own, used by one caller at a time: the median of Pool.Do
// minus in-process Execute on the same jobs, and the pool's spawns per
// thousand requests (its first spawn and every recycle). Every worker
// body must equal the in-process body.
func (r *run) roundTrip(ctx context.Context, jobs []workerpool.Job) {
	pool := workerpool.New(workerpool.Config{Workers: 1, MemLimit: 512 << 20})
	defer pool.Close()
	var diffs []float64
	for i, j := range jobs {
		r.attempted++
		var res *workerpool.JobResult
		var err error
		do := r.tr.timed("workerpool.do", 0, int64(i), func() { res, err = pool.Do(ctx, j) })
		var local *workerpool.JobResult
		exec := r.tr.timed("workerpool.execute.local", 0, int64(i), func() { local = workerpool.Execute(ctx, j) })
		switch {
		case err != nil:
			r.failed++
			r.fail("worker job %d: %v", i, err)
		case !bytes.Equal(res.Body, local.Body):
			r.failed++
			r.fail("worker job %d: body differs from in-process Execute", i)
		default:
			diffs = append(diffs, ms(do-exec))
		}
	}
	st := pool.Stats()
	r.set("workerpool.roundtrip_ms", "ms", median(diffs))
	r.set("workerpool.spawns_per_kreq", "1/kreq", 1000*float64(st.Spawns)/float64(max(st.Requests, 1)))
}

// overheadPct is how much longer the traced requests took on average
// than the bare ones, in percent.
func overheadPct(bare, traced time.Duration) float64 {
	if bare == 0 {
		return 0
	}
	return 100 * float64(traced-bare) / float64(bare)
}

// runAnalyzeHot is analyze-hot: nproc closed-loop clients pick keys
// from a Zipf distribution over sources prewarmed in set-up, so every
// request is a result-cache hit and the fill pipeline stays idle.
func runAnalyzeHot(r *run) error {
	ctx := context.Background()
	keys := r.cfg.size.hotKeys
	jobs := make([]workerpool.Job, keys)
	reqs := make([][]byte, keys)
	for i := range jobs {
		jobs[i] = genJob(r.cfg.seed, i)
		reqs[i] = requestBody(jobs[i])
	}
	warm := make([]reply, keys)
	d, setups, err := r.setUp(func() (*daemon, error) {
		d, err := startDaemon(false)
		if err != nil {
			return nil, err
		}
		if err := r.prewarm(d, reqs, warm); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	// Reference passes run before the traffic and again after it: the
	// host's speed drifts over tens of seconds, and sweep_s, the median
	// pass, then spans the whole run.
	want, _, scaled := r.reference(ctx, jobs)

	// Each request's latency goes to the histogram of the window it
	// started in. Failures are also kept apart; they are rare and carry
	// errors.
	type failure struct {
		key int
		err error
	}
	clients := r.cfg.nproc
	failures := make([][]failure, clients)
	run := time.Duration(r.cfg.seconds) * time.Second
	windows := make([]*histogram, max(int(run/hotWindow), 1))
	for w := range windows {
		windows[w] = newHistogram()
	}
	// A traced run traces its second half, from a window boundary.
	tracedFrom := (run / 2).Truncate(hotWindow)
	if r.tr != nil {
		r.tr.untraced(tracedFrom)
	}
	r.info["rss_peak_reset"] = resetPeakRSS()
	rssW := watchRSS()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.seed*7919 + int64(c)))
			zipf := rand.NewZipf(rng, hotSkew, 1, uint64(keys-1))
			for now := time.Since(start); now < run; now = time.Since(start) {
				k := int(zipf.Uint64())
				var tr *tracer
				if now >= tracedFrom {
					tr = r.tr
				}
				var rp reply
				lat := tr.timed("http.analyze", 0, int64(k), func() { rp = d.analyze(reqs[k]) })
				if err := checkReply(rp, warm[k].body, "hit"); err != nil {
					failures[c] = append(failures[c], failure{k, err})
					lat = failedLatency
				}
				windows[min(int(now/hotWindow), len(windows)-1)].add(lat)
			}
		}(c)
	}
	wg.Wait()
	rss := rssW.peakMB()
	after, err := d.scrape()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	// The warm-up bodies must be the in-process pipeline's, which must
	// not change across the run.
	again, _, later := r.reference(ctx, jobs)
	scaled = append(scaled, later...)
	for k := range jobs {
		r.attempted++
		err := checkReply(warm[k], want[k], "miss")
		if err == nil && !bytes.Equal(want[k], again[k]) {
			err = fmt.Errorf("workerpool.Execute gave a different body after the traffic")
		}
		if err != nil {
			r.failed++
			r.fail("warm-up key %d: %v", k, err)
		}
	}
	for _, fs := range failures {
		for _, f := range fs {
			r.failed++
			r.fail("hot key %d: %v", f.key, f.err)
		}
	}
	// Per-window latency percentiles and completions; the run reports
	// the median window's p50 and rate, and the whole run's p99.
	all, bare, traced := newHistogram(), newHistogram(), newHistogram()
	var ws []percentiler
	var rates []float64
	for w, h := range windows {
		r.attempted += int64(h.n)
		all.merge(h)
		if time.Duration(w)*hotWindow < tracedFrom {
			bare.merge(h)
		} else {
			traced.merge(h)
		}
		ws = append(ws, h)
		rates = append(rates, float64(h.n)/hotWindow.Seconds())
	}
	okShare := float64(r.attempted-r.failed) / float64(r.attempted)
	r.set("setup_s", "s", median(setups))
	r.set("sweep_s", "s", median(scaled))
	r.info["reference_chunk_scaled_s"] = scaled
	r.setLatency(ws, all, median(rates)*okShare, rss)
	r.info["window_rps"] = rates
	r.info["clients"] = clients
	r.info["keys"] = keys
	r.info["zipf_s"] = hotSkew
	r.info["setup_s"] = setups
	r.info["server_metrics"] = after
	if r.tr == nil {
		return nil
	}
	r.set("trace.overhead_pct", "%", overheadPct(bare.mean(), traced.mean()))
	// With no fill, a hit is all serve overhead.
	p50, _ := all.pct(50)
	r.set("server.overhead_ms", "ms", ms(p50))
	r.setCacheMetrics(after)
	r.idle("loadgen.late_p99_ms")
	r.finishAnalyzeTrace(ctx, jobs)
	return nil
}

// prewarm sends every key once with one client per CPU, recording each
// cold reply.
func (r *run) prewarm(d *daemon, reqs [][]byte, warm []reply) error {
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				warm[k] = d.analyze(reqs[k])
			}
		}()
	}
	for k := range reqs {
		next <- k
	}
	close(next)
	wg.Wait()
	for k, rp := range warm {
		if rp.err != nil || rp.status != http.StatusOK {
			return fmt.Errorf("prewarm key %d: status %d %v", k, rp.status, rp.err)
		}
	}
	return nil
}
