package vm_test

import (
	"context"
	"testing"

	"delinq/internal/bench"
	"delinq/internal/cache"
	"delinq/internal/obj"
	"delinq/internal/vm"
)

// TestAccessCountsMatchHook: the VM derives LoadAccesses and
// DataAccesses from Exec once a run completes. On every training
// benchmark, on both ISAs, they must equal what an OnAccess hook tallies
// access by access, with caches attached so the bank path runs too.
func TestAccessCountsMatchHook(t *testing.T) {
	for _, isaName := range []string{"mips", "arm"} {
		for _, b := range bench.Training() {
			bd, err := bench.CompileISACtx(context.Background(), b, false, isaName)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, isaName, err)
			}
			loads := make([]int64, len(bd.Image.Text))
			var total int64
			caches := []*cache.Cache{mustCache(t, cache.Baseline), mustCache(t, cache.Config{SizeBytes: 1024, Assoc: 1, BlockBytes: 16})}
			res, err := vm.Run(bd.Image, vm.Options{
				Args:   b.Input1,
				Caches: caches,
				OnAccess: func(pc, addr uint32, store bool) {
					total++
					if !store {
						loads[(pc-obj.TextBase)/4]++
					}
				},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, isaName, err)
			}
			if res.DataAccesses != total {
				t.Errorf("%s/%s: DataAccesses = %d, hook saw %d", b.Name, isaName, res.DataAccesses, total)
			}
			for i, n := range loads {
				if res.LoadAccesses[i] != n {
					t.Errorf("%s/%s: LoadAccesses[%d] = %d, hook saw %d", b.Name, isaName, i, res.LoadAccesses[i], n)
					break
				}
			}
			for c, cc := range caches {
				if st := cc.Stats(); st.Accesses != uint64(total) {
					t.Errorf("%s/%s: cache %d saw %d accesses, hook %d", b.Name, isaName, c, st.Accesses, total)
				}
			}
		}
	}
}

func mustCache(t *testing.T, cfg cache.Config) *cache.Cache {
	t.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
