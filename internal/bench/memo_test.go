package bench

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"delinq/internal/cache"
	"delinq/internal/core"
)

// TestKeysCanonical: logically identical requests share a key; requests
// differing in any dimension never collide, including slice encodings
// that would alias under naive string joining.
func TestKeysCanonical(t *testing.T) {
	if buildKey("181.mcf", false, "") != buildKey("181.mcf", false, "") {
		t.Error("identical build requests got different keys")
	}
	if buildKey("181.mcf", false, "") == buildKey("181.mcf", true, "") {
		t.Error("optimize flag not encoded")
	}
	if buildKey("a|O1", false, "") == buildKey("a", true, "") {
		t.Error("name containing separator aliases the optimize flag")
	}
	if buildKey("181.mcf", false, "") != buildKey("181.mcf", false, "mips") {
		t.Error("empty ISA and mips should share one build")
	}
	if buildKey("181.mcf", false, "mips") == buildKey("181.mcf", false, "arm") {
		t.Error("ISA not encoded in build key")
	}

	bd := &Build{Bench: &Benchmark{Name: "x"}}
	bdO := &Build{Bench: &Benchmark{Name: "x"}, Optimize: true}
	g1 := []cache.Config{{SizeBytes: 8192, Assoc: 4, BlockBytes: 32}}
	g2 := []cache.Config{{SizeBytes: 8192, Assoc: 2, BlockBytes: 32}}

	if runKey(bd, []int32{1, 2}, g1) != runKey(bd, []int32{1, 2}, g1) {
		t.Error("identical run requests got different keys")
	}
	distinct := []string{
		runKey(bd, []int32{1, 23}, g1),
		runKey(bd, []int32{12, 3}, g1),
		runKey(bd, []int32{1, 2, 3}, g1),
		runKey(bd, []int32{123}, g1),
		runKey(bd, []int32{-1, 23}, g1),
		runKey(bd, nil, g1),
		runKey(bd, nil, g2),
		runKey(bd, nil, append(g1, g2...)),
		runKey(bd, nil, append(g2, g1...)),
		runKey(bd, nil, nil),
		runKey(bd, nil, []cache.Config{{SizeBytes: 8192, Assoc: 4, BlockBytes: 32, Repl: cache.FIFO}}),
		runKey(bdO, nil, g1),
	}
	seen := map[string]int{}
	for i, k := range distinct {
		if j, dup := seen[k]; dup {
			t.Errorf("key collision between request %d and %d: %q", j, i, k)
		}
		seen[k] = i
	}
	for _, k := range distinct {
		if !strings.HasPrefix(k, "1:x|") {
			t.Errorf("run key missing canonical build prefix: %q", k)
		}
	}
}

// TestCompileSingleflight: concurrent compiles of the same benchmark
// share one computation and one resulting *Build.
func TestCompileSingleflight(t *testing.T) {
	ResetCache()
	b := ByName("147.vortex")
	const n = 8
	results := make([]*Build, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bd, err := Compile(b, false)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = bd
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different build", i)
		}
	}
	bs, _ := CacheStats()
	if bs.Misses != 1 {
		t.Errorf("compiled %d times, want exactly once (stats %+v)", bs.Misses, bs)
	}
	ResetCache()
}

// TestResetCacheDuringWork hammers Compile/Simulate from several
// goroutines while ResetCache fires concurrently: no caller may observe
// an error or a torn result, and the engine must still work afterwards.
// (Run under -race this is the documented-semantics regression test for
// the reset/in-flight interaction.)
func TestResetCacheDuringWork(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations in short mode")
	}
	ResetCache()
	b := ByName("147.vortex")
	geoms := []cache.Config{cache.Baseline}
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 3; i++ {
				bd, err := Compile(b, false)
				if err != nil {
					t.Error(err)
					return
				}
				run, err := Simulate(bd, b.Input1, geoms)
				if err != nil {
					t.Error(err)
					return
				}
				// Across a concurrent Reset, run.Build may be a
				// different-but-equivalent *Build than bd (two compile
				// flights for the same content); only content matters.
				if run.Result.Insts == 0 || run.Build.Bench != b || run.Build.Optimize {
					t.Errorf("torn run: insts=%d build=%+v", run.Result.Insts, run.Build)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ResetCache()
				runtime.Gosched()
			}
		}
	}()
	workers.Wait()
	close(stop)
	resetter.Wait()

	// After the dust settles the engine still computes and memoises.
	bd, err := Compile(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(bd, b.Input1, geoms); err != nil {
		t.Fatal(err)
	}
	_, rs := CacheStats()
	if rs.Inflight != 0 {
		t.Errorf("inflight computations leaked: %+v", rs)
	}
	ResetCache()
}

// TestCoalescedWaiterHonoursOwnContext: a caller joined to another
// caller's in-flight simulation returns as soon as its own ctx ends,
// with a simulate-stage error, while the simulation runs on for its
// owner and is retained.
func TestCoalescedWaiterHonoursOwnContext(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations in short mode")
	}
	ResetCache()
	defer ResetCache()
	b := ByName("126.gcc")
	bd, err := Compile(b, false)
	if err != nil {
		t.Fatal(err)
	}
	// Several geometries keep the owner's simulation running long after
	// the waiter has given up.
	geoms := []cache.Config{
		cache.Baseline,
		{SizeBytes: 16384, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 32768, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 8192, Assoc: 2, BlockBytes: 32},
		{SizeBytes: 8192, Assoc: 8, BlockBytes: 32},
	}

	type result struct {
		run *Run
		err error
	}
	owner := make(chan result, 1)
	go func() {
		r, err := Simulate(bd, b.Input1, geoms)
		owner <- result{r, err}
	}()
	for {
		if _, rs := CacheStats(); rs.Inflight == 1 {
			break
		}
		runtime.Gosched()
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = SimulateCtx(ctx, bd, b.Input1, geoms)
	select {
	case <-owner:
		t.Fatal("the cancelled waiter returned only after the simulation finished")
	default:
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	var se *core.StageError
	if !errors.As(err, &se) || se.Stage != core.StageSimulate || se.Benchmark != b.Name {
		t.Errorf("waiter err = %v, want a simulate-stage *core.StageError for %s", err, b.Name)
	}

	got := <-owner
	if got.err != nil {
		t.Fatalf("owner's simulation failed: %v", got.err)
	}
	_, rs := CacheStats()
	if rs.Misses != 1 || rs.Coalesced != 1 || rs.Entries != 1 || rs.Inflight != 0 {
		t.Errorf("runs stats = %+v, want 1 miss, 1 coalesced, 1 entry", rs)
	}
	if r, ok := runs.Get(runKey(bd, b.Input1, geoms)); !ok || r != got.run {
		t.Error("the owner's run was not retained")
	}
}
