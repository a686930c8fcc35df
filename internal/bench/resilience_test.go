package bench

import (
	"errors"
	"testing"

	"delinq/internal/cache"
	"delinq/internal/core"
	"delinq/internal/faultinject"
	"delinq/internal/pattern"
	"delinq/internal/rescache"
	"delinq/internal/vm"
)

// withPlan installs a fault plan for one test, clearing the plan and
// the memo caches on both sides so armed faults never leak into (or
// memoised results out of) other tests.
func withPlan(t *testing.T, p *faultinject.Plan) {
	t.Helper()
	ResetCache()
	faultinject.Install(p)
	t.Cleanup(func() {
		faultinject.Clear()
		ResetCache()
	})
}

func TestPatternRetryRecovers(t *testing.T) {
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.ArmN(faultinject.PatternBudget, b.Name, 1)
	withPlan(t, p)

	bd, err := Compile(b, false)
	if err != nil {
		t.Fatalf("compile with one-shot pattern fault: %v", err)
	}
	if bd.Degraded != nil {
		t.Fatalf("retry path degraded anyway: %v", bd.Degraded)
	}
	// The halved-budget retry ran real analysis: loads are not all
	// Unknown.
	structured := false
	for _, ld := range bd.Loads {
		for _, e := range ld.Patterns {
			if e.Kind != pattern.Unknown {
				structured = true
			}
		}
	}
	if !structured {
		t.Error("retry produced only Unknown patterns")
	}
}

func TestPatternExhaustionDegradesToUnknown(t *testing.T) {
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.PatternBudget, b.Name)
	withPlan(t, p)

	bd, err := Compile(b, false)
	if err != nil {
		t.Fatalf("compile must degrade, not fail: %v", err)
	}
	if bd.Degraded == nil {
		t.Fatal("Build.Degraded not set")
	}
	if bd.Degraded.Stage != core.StagePattern || bd.Degraded.Benchmark != b.Name {
		t.Errorf("degradation provenance = %+v", bd.Degraded)
	}
	if !faultinject.Injected(bd.Degraded) {
		t.Error("injected fault not recognisable through the degradation error")
	}
	if len(bd.Loads) == 0 {
		t.Fatal("degraded build lost its loads")
	}
	for _, ld := range bd.Loads {
		if len(ld.Patterns) != 1 || ld.Patterns[0].Kind != pattern.Unknown || !ld.Truncated {
			t.Fatalf("degraded load %#x not Unknown: %+v", ld.PC, ld)
		}
	}
}

func TestCorruptImageFailsAssembleStage(t *testing.T) {
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.CorruptImage, b.Name)
	withPlan(t, p)

	_, err := Compile(b, false)
	if !errors.Is(err, &core.StageError{Benchmark: b.Name, Stage: core.StageAssemble}) {
		t.Fatalf("err = %v, want assemble-stage StageError for %s", err, b.Name)
	}
}

func TestSimBudgetFailsSimulateStage(t *testing.T) {
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.SimBudget, b.Name)
	withPlan(t, p)

	bd, err := Compile(b, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Simulate(bd, b.Input1, []cache.Config{cache.Baseline})
	if !errors.Is(err, &core.StageError{Stage: core.StageSimulate}) {
		t.Fatalf("err = %v, want simulate-stage StageError", err)
	}
	if !errors.Is(err, vm.ErrBudget) {
		t.Errorf("collapsed budget not reported as ErrBudget: %v", err)
	}
}

func TestWorkerPanicFailsWorkerStage(t *testing.T) {
	b := ByName("181.mcf")
	p := faultinject.NewPlan(1)
	p.Arm(faultinject.WorkerPanic, b.Name)
	withPlan(t, p)

	bd, err := Compile(b, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Simulate(bd, b.Input1, []cache.Config{cache.Baseline})
	if !errors.Is(err, &core.StageError{Stage: core.StageWorker}) {
		t.Fatalf("err = %v, want worker-stage StageError", err)
	}
	var pe *rescache.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("recovered panic not surfaced as PanicError: %v", err)
	}
	if !faultinject.Injected(err) {
		t.Errorf("deliberate fault not recognisable: %v", err)
	}

	// The error is not memoised: with the plan cleared the same request
	// succeeds.
	faultinject.Clear()
	if _, err := Simulate(bd, b.Input1, []cache.Config{cache.Baseline}); err != nil {
		t.Errorf("simulate after disarming: %v", err)
	}
}
