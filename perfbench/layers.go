package main

import (
	"context"
	"fmt"
	"time"

	"delinq/internal/asm"
	"delinq/internal/cache"
	"delinq/internal/classify"
	"delinq/internal/core"
	"delinq/internal/disasm"
	"delinq/internal/metrics"
	"delinq/internal/minic"
	"delinq/internal/obj"
	"delinq/internal/pattern"
	"delinq/internal/tables"
	"delinq/internal/vm"
	"delinq/internal/workerpool"
)

// geomName names a standard geometry in metric names: size, ways.
func geomName(g cache.Config) string {
	return fmt.Sprintf("%dk%dw", g.SizeBytes/1024, g.Assoc)
}

// layerMetric is one per-layer metric: its name and unit.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run prints.
func perLayer() []layerMetric {
	out := []layerMetric{
		{"minic.compile_ms", "ms"}, {"asm.assemble_ms", "ms"}, {"arm.lower_ms", "ms"},
		{"disasm.disasm_ms", "ms"}, {"pattern.analyze_ms", "ms"}, {"pattern.loads", "count"},
		{"vm.dispatch_minst_per_s", "Minst/s"}, {"vm.attached_minst_per_s", "Minst/s"},
		{"vm.insts", "count"}, {"vm.accesses", "count"},
	}
	for _, g := range tables.StdGeoms {
		out = append(out, layerMetric{"cache.replay_macc_per_s." + geomName(g), "Macc/s"})
	}
	for _, g := range tables.StdGeoms {
		out = append(out, layerMetric{"cache.misses." + geomName(g), "count"})
	}
	return append(out,
		layerMetric{"core.simulate_ms", "ms"}, layerMetric{"core.identify_ms", "ms"},
		layerMetric{"core.evaluate_ms", "ms"}, layerMetric{"classify.score_ms", "ms"},
		layerMetric{"metrics.evaluate_ms", "ms"}, layerMetric{"workerpool.execute_ms", "ms"},
		layerMetric{"tables.preload_s", "s"}, layerMetric{"tables.render_ms", "ms"},
		layerMetric{"bench.build_misses", "count"}, layerMetric{"bench.run_misses", "count"},
		layerMetric{"server.overhead_ms", "ms"}, layerMetric{"rescache.hit_ratio", "ratio"},
		layerMetric{"rescache.evictions", "count"}, layerMetric{"server.shed", "count"},
		layerMetric{"workerpool.roundtrip_ms", "ms"}, layerMetric{"workerpool.spawns_per_kreq", "1/kreq"},
		layerMetric{"loadgen.late_p99_ms", "ms"},
		layerMetric{"trace.coverage", "ratio"}, layerMetric{"trace.overhead_pct", "%"},
	)
}

func perLayerNames() []string {
	var names []string
	for _, m := range perLayer() {
		names = append(names, m.name)
	}
	return names
}

// idle reports 0 for layers the workload never calls, so every traced
// run prints the same metric set.
func (r *run) idle(names ...string) {
	for _, m := range perLayer() {
		if contains(names, m.name) {
			r.set(m.name, m.unit, 0)
		}
	}
}

// layerJob is one program the layer pass takes apart: the same work a
// fill does, one public call at a time.
type layerJob struct {
	name     string
	source   string
	optimize bool
	isa      string
	inter    bool
	args     []int32
	geoms    []cache.Config // attached during simulation
	job      workerpool.Job // the whole fill, for workerpool.Execute
}

// layerCounts are the simulator's exact counts over a layer pass. A
// change that only makes the program faster must leave them identical.
type layerCounts struct {
	insts, accesses, loads int64
	misses                 []int64 // per tables.StdGeoms entry
}

// access is one captured data access.
type access struct {
	pc, addr uint32
	store    bool
}

// replayChunk bounds the captured trace held in memory at once; each
// full chunk is replayed through every geometry before capture goes on.
const replayChunk = 1 << 16

// layerPass runs each job through every layer under its own span and
// checks that the layers agree: the same instruction and access counts
// from the bare, the cache-attached and the capturing VM runs, replayed
// per-load misses equal to the attached run's, and the fill path's
// evaluation equal to one rebuilt from its parts.
func (r *run) layerPass(ctx context.Context, jobs []layerJob) layerCounts {
	cnt := layerCounts{misses: make([]int64, len(tables.StdGeoms))}
	for i, lj := range jobs {
		r.attempted++
		if err := r.layerJob(ctx, int64(i), lj, &cnt); err != nil {
			r.failed++
			r.fail("layer pass %s: %v", lj.name, err)
		}
	}
	return cnt
}

func (r *run) layerJob(ctx context.Context, req int64, lj layerJob, cnt *layerCounts) error {
	tr := r.tr
	root := tr.start("layers.job", 0, req)
	defer tr.stop(root)

	var (
		text string
		img  *obj.Image
		prog *disasm.Program
		err  error
	)
	tr.timed("minic.compile", root, req, func() {
		text, err = minic.Compile(lj.source, minic.Options{Optimize: lj.optimize})
	})
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	tr.timed("asm.assemble", root, req, func() { img, err = asm.Assemble(text) })
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	if lj.isa != "" && lj.isa != "mips" {
		tr.timed("arm.lower", root, req, func() { img, err = core.LowerImage(img, lj.isa) })
		if err != nil {
			return err
		}
	}
	tr.timed("disasm.disasm", root, req, func() { prog, err = disasm.Disassemble(img) })
	if err != nil {
		return fmt.Errorf("disasm: %w", err)
	}
	pconf := pattern.DefaultConfig()
	pconf.Interprocedural = lj.inter
	var loads []*pattern.Load
	tr.timed("pattern.analyze", root, req, func() { loads, err = pattern.AnalyzeProgramCtx(ctx, prog, pconf) })
	if err != nil {
		return fmt.Errorf("pattern: %w", err)
	}
	cnt.loads += int64(len(loads))

	// The simulator three ways: bare dispatch, caches attached, and a
	// captured trace replayed through each geometry on its own.
	var bare, attached, captured *vm.Result
	tr.timed("vm.dispatch", root, req, func() { bare, err = vm.RunContext(ctx, img, vm.Options{Args: lj.args}) })
	if err != nil {
		return fmt.Errorf("vm dispatch: %w", err)
	}
	caches, err := newCaches(lj.geoms)
	if err != nil {
		return err
	}
	tr.timed("vm.attached", root, req, func() {
		attached, err = vm.RunContext(ctx, img, vm.Options{Args: lj.args, Caches: caches})
	})
	if err != nil {
		return fmt.Errorf("vm attached: %w", err)
	}
	rp, err := newReplayer(tr, root, req, len(img.Text))
	if err != nil {
		return err
	}
	capID := tr.start("vm.capture", root, req)
	captured, err = vm.RunContext(ctx, img, vm.Options{Args: lj.args, OnAccess: rp.observe})
	rp.flush()
	tr.stop(capID)
	if err != nil {
		return fmt.Errorf("vm capture: %w", err)
	}
	if bare.Insts != attached.Insts || bare.Insts != captured.Insts ||
		bare.DataAccesses != attached.DataAccesses || bare.DataAccesses != captured.DataAccesses {
		return fmt.Errorf("simulator counts disagree: insts %d/%d/%d accesses %d/%d/%d",
			bare.Insts, attached.Insts, captured.Insts, bare.DataAccesses, attached.DataAccesses, captured.DataAccesses)
	}
	for gi, g := range lj.geoms {
		ri := stdIndex(g)
		if ri < 0 {
			return fmt.Errorf("geometry %v is not a standard geometry", g)
		}
		if !equalInts(rp.loadMisses[ri], attached.LoadMisses[gi]) {
			return fmt.Errorf("replayed per-load misses differ from the attached VM's under %s", geomName(g))
		}
	}
	cnt.insts += bare.Insts
	cnt.accesses += bare.DataAccesses
	for ri, c := range rp.caches {
		cnt.misses[ri] += int64(c.Stats().Misses)
	}

	// The fill path, one public call at a time.
	var sim *core.Simulation
	tr.timed("core.simulate", root, req, func() { sim, err = core.SimulateCtx(ctx, img, lj.args, lj.geoms...) })
	if err != nil {
		return err
	}
	if sim.Result.Insts != bare.Insts {
		return fmt.Errorf("core.Simulate ran %d instructions, the bare VM %d", sim.Result.Insts, bare.Insts)
	}
	var res *core.Result
	tr.timed("core.identify", root, req, func() {
		res, err = core.IdentifyImageCtx(ctx, img, core.Options{Profile: sim, Interprocedural: lj.inter})
	})
	if err != nil {
		return err
	}
	if len(res.Loads) != len(loads) {
		return fmt.Errorf("core.Identify found %d loads, pattern analysis %d", len(res.Loads), len(loads))
	}
	var ev metrics.SetEval
	tr.timed("core.evaluate", root, req, func() {
		ev = res.Evaluate(sim, 0)
		res.Baselines(sim, 0)
	})
	var scored []*classify.Scored
	tr.timed("classify.score", root, req, func() { scored = classify.Score(res.Loads, sim, res.Config) })
	if len(scored) != len(res.Scored) {
		return fmt.Errorf("classify.Score scored %d loads, core.Identify %d", len(scored), len(res.Scored))
	}
	var ev2 metrics.SetEval
	tr.timed("metrics.evaluate", root, req, func() { ev2 = metrics.Evaluate(res.DeltaSet(), sim.LoadStats(res.Loads, 0)) })
	if ev2 != ev {
		return fmt.Errorf("metrics.Evaluate %+v differs from core's %+v", ev2, ev)
	}
	var jr *workerpool.JobResult
	tr.timed("workerpool.execute", root, req, func() { jr = workerpool.Execute(ctx, lj.job) })
	if jr.Status != 200 {
		return fmt.Errorf("workerpool.Execute: status %d: %s", jr.Status, jr.Err)
	}
	return nil
}

func newCaches(geoms []cache.Config) ([]*cache.Cache, error) {
	out := make([]*cache.Cache, len(geoms))
	for i, g := range geoms {
		c, err := cache.New(g)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// stdIndex is g's index in tables.StdGeoms, or -1.
func stdIndex(g cache.Config) int {
	for i, s := range tables.StdGeoms {
		if s == g {
			return i
		}
	}
	return -1
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayer captures a VM's accesses in chunks and replays each chunk
// through one cache per standard geometry in a tight loop of its own,
// counting per-load misses the way the VM does.
type replayer struct {
	tr         *tracer
	parent     int
	req        int64
	buf        []access
	caches     []*cache.Cache
	loadMisses [][]int64
}

func newReplayer(tr *tracer, parent int, req int64, textWords int) (*replayer, error) {
	caches, err := newCaches(tables.StdGeoms)
	if err != nil {
		return nil, err
	}
	rp := &replayer{tr: tr, parent: parent, req: req, buf: make([]access, 0, replayChunk), caches: caches}
	for range caches {
		rp.loadMisses = append(rp.loadMisses, make([]int64, textWords))
	}
	return rp, nil
}

func (rp *replayer) observe(pc, addr uint32, store bool) {
	rp.buf = append(rp.buf, access{pc, addr, store})
	if len(rp.buf) == replayChunk {
		rp.flush()
	}
}

func (rp *replayer) flush() {
	for ri, c := range rp.caches {
		lm := rp.loadMisses[ri]
		id := rp.tr.start("cache.replay."+geomName(tables.StdGeoms[ri]), rp.parent, rp.req)
		for _, a := range rp.buf {
			if !c.Access(a.addr, a.store) && !a.store {
				lm[(a.pc-obj.TextBase)/4]++
			}
		}
		rp.tr.stop(id)
	}
	rp.buf = rp.buf[:0]
}

// setLayerMetrics turns the trace and the pass's counts into the
// per-layer metrics shared by every workload. Layers the workload never
// called report 0.
func (r *run) setLayerMetrics(cnt layerCounts) {
	st := r.tr.selfTimes()
	meanMS := func(name string) float64 {
		lt := st[name]
		if lt.Count == 0 {
			return 0
		}
		return ms(lt.Self) / float64(lt.Count)
	}
	rate := func(n int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(n) / d.Seconds() / 1e6
	}
	for _, name := range []string{"minic.compile", "asm.assemble", "arm.lower", "disasm.disasm", "pattern.analyze",
		"core.simulate", "core.identify", "core.evaluate", "classify.score", "metrics.evaluate", "workerpool.execute"} {
		r.set(name+"_ms", "ms", meanMS(name))
	}
	r.set("pattern.loads", "count", float64(cnt.loads))
	r.set("vm.insts", "count", float64(cnt.insts))
	r.set("vm.accesses", "count", float64(cnt.accesses))
	r.set("vm.dispatch_minst_per_s", "Minst/s", rate(cnt.insts, st["vm.dispatch"].Self))
	r.set("vm.attached_minst_per_s", "Minst/s", rate(cnt.insts, st["vm.attached"].Self))
	for ri, g := range tables.StdGeoms {
		n := geomName(g)
		r.set("cache.replay_macc_per_s."+n, "Macc/s", rate(cnt.accesses, st["cache.replay."+n].Self))
		r.set("cache.misses."+n, "count", float64(cnt.misses[ri]))
	}
	r.info["layer_self_ms"] = selfTable(st)
}

// selfTable renders the self-time aggregate for the run record.
func selfTable(st map[string]layerTime) map[string]any {
	out := map[string]any{}
	for name, lt := range st {
		out[name] = map[string]any{"self_ms": ms(lt.Self), "spans": lt.Count}
	}
	return out
}
