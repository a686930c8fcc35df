// Package bench provides the experimental workload: eighteen synthetic
// mini-C programs, one per SPEC benchmark used in the paper, each
// modelling its namesake's characteristic memory behaviour, plus the
// harness that compiles, simulates and analyses them with result
// caching.
//
// The substitution (real SPEC binaries are unavailable here) preserves
// what the heuristic depends on: the mix of scalar stack traffic, strided
// array walks, hash probing, and pointer chasing; two input sets per
// program; and cold initialisation/reporting code around hot kernels.
package bench

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"delinq/internal/asm"
	"delinq/internal/cache"
	"delinq/internal/core"
	"delinq/internal/disasm"
	"delinq/internal/faultinject"
	"delinq/internal/metrics"
	"delinq/internal/minic"
	"delinq/internal/obj"
	"delinq/internal/pattern"
	"delinq/internal/rescache"
	"delinq/internal/vm"
)

// Benchmark is one synthetic SPEC stand-in.
type Benchmark struct {
	Name     string // e.g. "181.mcf"
	Source   string // mini-C source
	Training bool   // member of the 11-benchmark training set
	// Input1 is the training/reference input; Input2 the alternate
	// (Table 6).
	Input1, Input2         []int32
	Input1Name, Input2Name string
}

// Registry of all benchmarks, ordered as in the paper's tables.
var registry []*Benchmark

func register(b *Benchmark) { registry = append(registry, attachColdLib(b)) }

// All returns every benchmark in table order.
func All() []*Benchmark { return registry }

// Training returns the 11 training benchmarks.
func Training() []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if b.Training {
			out = append(out, b)
		}
	}
	return out
}

// Test returns the 7 held-out benchmarks (Table 10).
func Test() []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if !b.Training {
			out = append(out, b)
		}
	}
	return out
}

// ByName returns the named benchmark, or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Build is one compiled benchmark binary with its static analysis.
type Build struct {
	Bench    *Benchmark
	Optimize bool
	// ISA is the machine description the image was lowered to; empty
	// means the assembler's native mips.
	ISA   string
	Image *obj.Image
	Prog  *disasm.Program
	Loads []*pattern.Load
	// Degraded is non-nil when a recoverable stage failed and the build
	// fell back to a lower-fidelity result (currently: pattern analysis
	// failing even at halved budgets, leaving every load Unknown). The
	// build is still usable; tables render the benchmark as DEGRADED.
	Degraded *core.StageError
}

// NumLoads returns |Λ|.
func (b *Build) NumLoads() int { return len(b.Loads) }

// Run is one completed simulation: the VM profile plus a cache model per
// requested geometry.
type Run struct {
	Build  *Build
	Input  []int32
	Result *vm.Result
	Caches []*cache.Cache
}

// ExecCount implements classify.ExecProfile.
func (r *Run) ExecCount(pc uint32) int64 { return r.Result.ExecAt(pc) }

// builds memoises compiled binaries and runs completed simulations;
// experiments across tables share them. All three are unbounded
// singleflight caches: concurrent requests for the same key wait on one
// in-flight computation instead of duplicating it or serialising on a
// global lock, which is what lets a worker pool saturate every core.
var (
	builds     = rescache.New[*Build](rescache.Config{}, nil)
	runs       = rescache.New[*Run](rescache.Config{}, nil)
	interLoads = rescache.New[[]*pattern.Load](rescache.Config{}, nil)
)

// ResetCache clears the memoised builds and runs (used by tests and the
// throughput benchmarks). Computations in flight when ResetCache is
// called are detached, not cancelled: their callers still receive the
// build or run they asked for, but the result is dropped instead of
// retained, and later calls recompute. It is safe to call concurrently
// with Compile, Simulate, or a running tables.Preload.
func ResetCache() {
	builds.Reset()
	runs.Reset()
	interLoads.Reset()
}

// CacheStats returns the activity counters of the build and run
// caches. Stats.Misses counts computations actually started, so after
// any sequence of concurrent experiments, Misses equals the number of
// distinct (benchmark, optimize) builds and distinct (benchmark,
// optimize, input, geometries) simulations performed — the exactly-once
// property the concurrency tests assert.
func CacheStats() (build, run rescache.Stats) {
	return builds.Stats(), runs.Stats()
}

// buildKey canonically encodes a compile request. The benchmark name is
// length-prefixed so no name can alias another's encoding, and the
// target ISA is folded in (canonicalised so "" and "mips" share one
// build) so memoised builds never cross machine descriptions.
func buildKey(name string, optimize bool, isaName string) string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(len(name)))
	sb.WriteByte(':')
	sb.WriteString(name)
	if optimize {
		sb.WriteString("|O1")
	} else {
		sb.WriteString("|O0")
	}
	if isaName == "" {
		isaName = "mips"
	}
	sb.WriteString("|isa=")
	sb.WriteString(isaName)
	return sb.String()
}

// runKey canonically encodes a simulate request: the build key, the
// length-prefixed input vector, and every geometry's full parameter
// set. Logically identical requests always produce the same key, and
// distinct vectors or geometry bundles can never collide (each list is
// length-prefixed and each element fully delimited).
func runKey(bd *Build, input []int32, geoms []cache.Config) string {
	var sb strings.Builder
	sb.WriteString(buildKey(bd.Bench.Name, bd.Optimize, bd.ISA))
	sb.WriteString("|in")
	sb.WriteString(strconv.Itoa(len(input)))
	sb.WriteByte(':')
	for _, v := range input {
		sb.WriteString(strconv.FormatInt(int64(v), 10))
		sb.WriteByte(',')
	}
	sb.WriteString("|g")
	sb.WriteString(strconv.Itoa(len(geoms)))
	sb.WriteByte(':')
	for _, g := range geoms {
		sb.WriteString(strconv.Itoa(g.SizeBytes))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(g.Assoc))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(g.BlockBytes))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(int(g.Repl)))
		sb.WriteByte(';')
	}
	return sb.String()
}

// Compile builds (or returns the cached) binary for the benchmark.
// Concurrent calls for the same (benchmark, optimize) pair share one
// compilation.
func Compile(b *Benchmark, optimize bool) (*Build, error) {
	return CompileISACtx(context.Background(), b, optimize, "")
}

// CompileISACtx is Compile under a context for a named machine
// description ("" is the assembler's native mips). The assembled MIPS
// image is lowered through core.LowerImage before disassembly and
// pattern analysis, so the cached Build's Prog and Loads describe the
// target ISA's instructions; builds for different ISAs are memoised
// under distinct keys and never shared. Cancellation stops pattern
// analysis at the next function boundary, and a caller waiting on
// another caller's compile returns as soon as its own ctx ends. Every
// failure is reported as a *core.StageError naming the stage that
// failed; a pattern-analysis failure degrades (see Build.Degraded)
// instead of failing the build.
func CompileISACtx(ctx context.Context, b *Benchmark, optimize bool, isaName string) (*Build, error) {
	bd, _, err := builds.Do(ctx, buildKey(b.Name, optimize, isaName), func() (*Build, bool, error) {
		asmText, err := minic.Compile(b.Source, minic.Options{Optimize: optimize})
		if err != nil {
			return nil, false, core.WrapStage(b.Name, core.StageCompile, err)
		}
		img, err := asm.Assemble(asmText)
		if err != nil {
			return nil, false, core.WrapStage(b.Name, core.StageAssemble, err)
		}
		img, err = core.LowerImage(img, isaName)
		if err != nil {
			return nil, false, core.WrapStage(b.Name, core.StageAssemble, err)
		}
		corruptImage(b.Name, img)
		if err := img.Validate(); err != nil {
			return nil, false, core.WrapStage(b.Name, core.StageAssemble, err)
		}
		prog, err := disasm.Disassemble(img)
		if err != nil {
			return nil, false, core.WrapStage(b.Name, core.StageDisasm, err)
		}
		loads, degraded, err := analyzePatterns(ctx, b.Name, prog)
		if err != nil {
			return nil, false, err
		}
		return &Build{
			Bench:    b,
			Optimize: optimize,
			ISA:      isaName,
			Image:    img,
			Prog:     prog,
			Loads:    loads,
			Degraded: degraded,
		}, true, nil
	})
	if err != nil {
		return nil, stageErr(b.Name, core.StagePattern, err)
	}
	return bd, nil
}

// stageErr attributes a cache error to a pipeline stage: fill errors
// already carry theirs, a recovered panic is a StageWorker failure, and
// anything else — a failure of the fill's last stage, or a coalesced
// waiter's own ctx ending — is charged to stage.
func stageErr(name string, stage core.Stage, err error) error {
	var pe *rescache.PanicError
	if errors.As(err, &pe) {
		stage = core.StageWorker
	}
	return core.WrapStage(name, stage, err)
}

// corruptImage is the CorruptImage fault seam: when armed it damages the
// freshly assembled image so the validation that follows rejects it.
// The entry point is always pushed out of range (deterministic failure);
// the plan's random stream adds seed-dependent text damage on top.
func corruptImage(name string, img *obj.Image) {
	if !faultinject.Fires(faultinject.CorruptImage, name) {
		return
	}
	img.Entry = img.TextEnd() + 4
	if rng := faultinject.Rand(faultinject.CorruptImage, name); rng != nil && len(img.Text) > 0 {
		img.Text[rng.Intn(len(img.Text))] ^= 1 << uint(rng.Intn(32))
	}
}

// analyzePatterns runs pattern analysis with graceful degradation.
// Analysis is deterministic, so there is no backoff: a failure (or
// recovered panic) is retried once, immediately, with halved
// MaxPatterns and MaxNodes budgets; if that fails too, every load
// degrades to the Unknown pattern and the returned *core.StageError
// records why. Context cancellation is never degraded — it propagates
// as the error.
func analyzePatterns(ctx context.Context, name string, prog *disasm.Program) ([]*pattern.Load, *core.StageError, error) {
	run := func(conf pattern.Config) (loads []*pattern.Load, err error) {
		defer func() {
			if r := recover(); r != nil {
				loads, err = nil, fmt.Errorf("pattern analysis panicked: %v", r)
			}
		}()
		if ferr := faultinject.Error(faultinject.PatternBudget, name); ferr != nil {
			return nil, ferr
		}
		return pattern.AnalyzeProgramCtx(ctx, prog, conf)
	}
	conf := pattern.DefaultConfig()
	var err error
	for pass := 0; pass < 2; pass++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		var loads []*pattern.Load
		if loads, err = run(conf); err == nil {
			return loads, nil, nil
		}
		conf.MaxPatterns /= 2
		conf.MaxNodes /= 2
	}
	if ctx.Err() != nil {
		return nil, nil, err
	}
	return pattern.UnknownLoads(prog),
		core.NewStageError(name, core.StagePattern, fmt.Errorf("degraded to unknown patterns: %w", err)),
		nil
}

// LoadsInter returns the build's loads re-analysed with interprocedural
// summaries (pattern.Config.Interprocedural). Build.Loads keeps the
// paper's flat per-function analysis; this alternate view is memoised
// alongside it so the comparison tables can render both without
// recomputing either.
func LoadsInter(bd *Build) []*pattern.Load {
	out, _, _ := interLoads.Do(context.Background(), buildKey(bd.Bench.Name, bd.Optimize, bd.ISA)+"|inter", func() ([]*pattern.Load, bool, error) {
		conf := pattern.DefaultConfig()
		conf.Interprocedural = true
		return pattern.AnalyzeProgram(bd.Prog, conf), true, nil
	})
	return out
}

// Simulate runs the binary on the given input, attaching one D-cache per
// geometry; results are memoised, and concurrent calls for the same
// request share a single simulation. The key is the request's content,
// not the *Build pointer, so after a concurrent ResetCache the returned
// Run may reference a distinct but equivalent Build from the caller's
// argument.
func Simulate(bd *Build, input []int32, geoms []cache.Config) (*Run, error) {
	return SimulateCtx(context.Background(), bd, input, geoms)
}

// SimulateCtx is Simulate under a context: a deadline or cancellation
// stops the VM within a few thousand instructions, and a caller waiting
// on another caller's simulation returns as soon as its own ctx ends
// (the simulation keeps running for the others). Failures surface as
// *core.StageError — StageSimulate for VM and geometry faults and for
// an abandoned wait, StageWorker for a recovered panic.
func SimulateCtx(ctx context.Context, bd *Build, input []int32, geoms []cache.Config) (*Run, error) {
	name := bd.Bench.Name
	r, _, err := runs.Do(ctx, runKey(bd, input, geoms), func() (*Run, bool, error) {
		faultinject.Crash(faultinject.WorkerPanic, name)
		caches := make([]*cache.Cache, len(geoms))
		for i, gcfg := range geoms {
			c, err := cache.New(gcfg)
			if err != nil {
				return nil, false, err
			}
			caches[i] = c
		}
		opts := vm.Options{Args: input, Caches: caches, MaxInsts: 3e8}
		if faultinject.Fires(faultinject.SimBudget, name) {
			opts.MaxInsts = 10000
		}
		res, err := vm.RunContext(ctx, bd.Image, opts)
		if err != nil {
			return nil, false, err
		}
		return &Run{Build: bd, Input: input, Result: res, Caches: caches}, true, nil
	})
	if err != nil {
		return nil, stageErr(name, core.StageSimulate, err)
	}
	return r, nil
}

// LoadStats extracts per-load (E(i), M(i,C)) pairs for cache index ci.
func (r *Run) LoadStats(ci int) []metrics.LoadStat {
	out := make([]metrics.LoadStat, 0, len(r.Build.Loads))
	for _, ld := range r.Build.Loads {
		out = append(out, metrics.LoadStat{
			PC:     ld.PC,
			Exec:   r.Result.ExecAt(ld.PC),
			Misses: r.Result.MissesAt(ci, ld.PC),
		})
	}
	return out
}
