// Command perfbench is delinq's benchmark: one program that exercises
// the reproduction's table sweep and the analysis daemon from outside,
// through the packages' public functions, checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 45 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"delinq/internal/workerpool"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	nproc    int
	size     sizes
}

// sizes are the workloads' dimensions; the self-test shrinks them.
type sizes struct {
	openRequests    int     // fewest requests in an open-loop run: p99 keeps ten samples beyond it
	hotKeys         int     // analyze-hot's key universe, prewarmed in set-up
	layerJobs       int     // jobs the traced run takes apart layer by layer
	setupReps       int     // fewest set-ups per run; the median is reported
	setupSeconds    float64 // set-ups repeat until they have taken this long (at most maxSetups)
	refSeconds      float64 // reference passes repeat until they have taken this long
	capacitySeconds float64 // length of the open-loop workloads' closed-loop capacity probe
	minSweeps       int     // fewest timed sweeps in an untraced sweep run
}

var fullSize = sizes{openRequests: 2500, hotKeys: 128, layerJobs: 32, setupReps: 5, setupSeconds: 1.5, refSeconds: 4, capacitySeconds: 3, minSweeps: 2}

// maxSetups caps set-up repetitions in one run.
const maxSetups = 50

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's state: its settings, the tracer (nil
// with tracing off), the operation counts, and what it measured.
type run struct {
	cfg       config
	tr        *tracer
	attempted int64
	failed    int64
	metrics   map[string]metric
	info      map[string]any

	mu       sync.Mutex // guards problems: checks may fail on any goroutine
	problems []string
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, metrics: map[string]metric{}, info: map[string]any{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// repeatSetup runs setup (under a span) until it has run
// size.setupReps times and size.setupSeconds have passed, at most
// maxSetups times, calling teardown (untimed, if not nil) between
// set-ups. It returns each set-up's wall time in seconds.
func (r *run) repeatSetup(setup, teardown func() error) ([]float64, error) {
	var walls []float64
	begin := time.Now()
	for i := 0; i < maxSetups && (i < r.cfg.size.setupReps || time.Since(begin).Seconds() < r.cfg.size.setupSeconds); i++ {
		if i > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		var err error
		walls = append(walls, r.tr.timed("setup", 0, int64(i), func() { err = setup() }).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return walls, nil
}

// set records a metric.
func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed check. It does not count an operation: the
// caller decides which operation it belongs to.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.problems = append(r.problems, msg)
}

// workloads maps each --workload name to the function that runs it. It
// sets the end-to-end metrics always and the per-layer metrics when
// tracing.
var workloads = map[string]func(*run) error{
	"sweep":            runSweep,
	"analyze-cold":     func(r *run) error { return runAnalyzeOpen(r, false) },
	"analyze-isolated": func(r *run) error { return runAnalyzeOpen(r, true) },
	"analyze-hot":      runAnalyzeHot,
}

// endToEnd lists the metrics an untraced run prints; perLayer lists a
// traced run's.
var endToEnd = []string{"setup_s", "sweep_s", "p50_ms", "p99_ms", "throughput_rps", "ok_ratio", "max_rss_mb"}

func main() {
	// The isolated workload's daemon re-executes this binary as its
	// sandbox workers, exactly as `delinq serve -isolate` re-executes
	// delinq.
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		fs := flag.NewFlagSet("worker", flag.ExitOnError)
		mem := fs.Int64("mem", 0, "memory ceiling in bytes")
		fs.Parse(os.Args[2:])
		if err := workerpool.ServeWorker(os.Stdin, os.Stdout, *mem); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		return // process start-up probe for the sweep's set-up time
	}
	os.Exit(mainErr())
}

func mainErr() int {
	cfg := config{nproc: runtime.NumCPU(), size: fullSize}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 45, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for run records and spans")
	flag.Parse()
	cfg.trace = traceFlag == 1
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	// The sweep's golden output doubles as the check that this runs from
	// a repository checkout.
	if _, err := os.Stat(goldenPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	r := newRun(cfg)
	started, steal0 := time.Now(), stealSeconds()
	if err := drive(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := r.complete(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.info["wall_s"] = time.Since(started).Seconds()
	r.info["host_steal_s"] = stealSeconds() - steal0
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	if err := r.record(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// complete sets ok_ratio and checks that the mode printed exactly the
// metrics it owes.
func (r *run) complete() error {
	if r.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", r.cfg.workload)
	}
	want := endToEnd
	r.set("ok_ratio", "ratio", float64(r.attempted-r.failed)/float64(r.attempted))
	if r.cfg.trace {
		want = perLayerNames()
		for name := range r.metrics {
			if !contains(want, name) {
				delete(r.metrics, name) // end-to-end figures of a traced run are not reported
			}
		}
	}
	for _, name := range want {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("workload %s did not measure %s", r.cfg.workload, name)
		}
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// record writes the run's environment, its details and (traced) its
// spans under cfg.out, and prints the environment to standard output
// ahead of the result line.
func (r *run) record(res result) error {
	env := environment(r.cfg)
	rec := map[string]any{"env": env, "details": r.info, "result": res, "problems": r.problems}
	line, err := json.Marshal(map[string]any{"perfbench_env": env, "details": r.info})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
		return err
	}
	// One record per workload and mode, overwritten by the next run: a
	// traced hot run's spans alone fill tens of megabytes.
	stem := filepath.Join(r.cfg.out, fmt.Sprintf("%s-trace%d", r.cfg.workload, boolInt(r.cfg.trace)))
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if r.tr != nil {
		return r.tr.writeFile(stem + ".spans.jsonl")
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// environment describes the machine and build a result came from.
func environment(cfg config) map[string]any {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	return env
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision: PERFBENCH_COMMIT when the caller sets
// it (run.sh does, from git), else "unknown" — a benchmark checkout
// need not be a git repository.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, skipping hidden directories, so a result names the code
// it measured even where no commit is known.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// stealSeconds is the CPU time the hypervisor has taken from this
// machine's CPUs since boot, from /proc/stat in USER_HZ (100 per second
// on Linux): a run that lost much of it ran on a busy host.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
