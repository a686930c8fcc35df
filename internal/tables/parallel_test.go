package tables

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"delinq/internal/bench"
	"delinq/internal/cache"
)

// TestPreloadExactlyOnce floods the engine with duplicate combos from
// concurrent Preload pools and asserts the memo layer collapsed them to
// one compile and one simulation per distinct combination.
func TestPreloadExactlyOnce(t *testing.T) {
	bench.ResetCache()
	base := []Combo{
		{Bench: bench.ByName("147.vortex"), Geoms: []cache.Config{cache.Baseline}},
		{Bench: bench.ByName("175.vpr"), Geoms: []cache.Config{cache.Baseline}},
	}
	var combos []Combo
	for i := 0; i < 6; i++ {
		combos = append(combos, base...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Preload(context.Background(), 4, combos); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	bs, rs := bench.CacheStats()
	if bs.Misses != 2 || bs.Errors != 0 {
		t.Errorf("builds: %+v, want exactly 2 misses", bs)
	}
	if rs.Misses != 2 || rs.Errors != 0 || rs.Entries != 2 || rs.Inflight != 0 {
		t.Errorf("runs: %+v, want exactly 2 misses/entries", rs)
	}
	// 3 pools × 12 combos = 36 requests for 2 results: the other 34
	// were answered by coalescing or hits.
	if rs.Hits+rs.Coalesced != 34 {
		t.Errorf("runs hits+coalesced = %d, want 34 (%+v)", rs.Hits+rs.Coalesced, rs)
	}
	bench.ResetCache()
}

// TestParallelTablesExactlyOnce regenerates several tables from
// concurrent goroutines starting from cold caches and asserts, via the
// memo counters, that every (benchmark, optimize, input) combination
// was compiled and simulated exactly once across the whole run.
func TestParallelTablesExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in short mode")
	}
	bench.ResetCache()
	ResetTraining()
	ids := []string{"1", "2", "7", "10", "12"}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			tab, err := ByID(id)
			if err != nil {
				t.Errorf("table %s: %v", id, err)
				return
			}
			if len(tab.Rows) == 0 {
				t.Errorf("table %s: empty", id)
			}
		}(id)
	}
	wg.Wait()
	bs, rs := bench.CacheStats()
	// These tables touch every benchmark unoptimised (18 builds) and
	// simulate Input 1 for all 18 plus Input 2 for the 11 training
	// benchmarks (Table 7) — 29 distinct runs, regardless of how many
	// goroutines raced to request them.
	if bs.Misses != 18 || bs.Errors != 0 {
		t.Errorf("builds: %+v, want exactly 18 misses", bs)
	}
	if rs.Misses != 29 || rs.Errors != 0 || rs.Entries != 29 {
		t.Errorf("runs: %+v, want exactly 29 misses/entries", rs)
	}
}

// TestResetCacheMidPreload calls bench.ResetCache while a Preload pool
// is mid-flight (the satellite regression for the documented Reset
// semantics; meaningful chiefly under -race). Preload must complete
// without error and the engine must still produce correct, memoised
// results afterwards.
func TestResetCacheMidPreload(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in short mode")
	}
	bench.ResetCache()
	combos := []Combo{
		{Bench: bench.ByName("147.vortex"), Geoms: []cache.Config{cache.Baseline}},
		{Bench: bench.ByName("175.vpr"), Geoms: []cache.Config{cache.Baseline}},
		{Bench: bench.ByName("300.twolf"), Geoms: []cache.Config{cache.Baseline}},
	}
	done := make(chan error, 1)
	go func() { done <- Preload(context.Background(), 2, combos) }()
	time.Sleep(30 * time.Millisecond) // land inside some simulation
	bench.ResetCache()
	if err := <-done; err != nil {
		t.Fatalf("preload across reset: %v", err)
	}
	// Re-warm and verify the engine is intact: results memoised anew.
	if err := Preload(context.Background(), 2, combos); err != nil {
		t.Fatal(err)
	}
	_, rs := bench.CacheStats()
	if rs.Entries != len(combos) || rs.Inflight != 0 {
		t.Errorf("post-reset stats: %+v, want %d entries", rs, len(combos))
	}
	bench.ResetCache()
}

// TestRenderAllMatchesSerial renders the cheap static table twice —
// through the parallel engine and directly — as a smoke check that
// RenderAll's output path is the plain serial renderer. (The full
// byte-identity guard against the committed golden file lives in the
// root package's TestTableAllGolden.)
func TestRenderAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in short mode")
	}
	rep, err := RenderAll(context.Background(), io.Discard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) != 0 {
		t.Errorf("fault-free sweep reported degradations: %v", rep.Degraded)
	}
}
