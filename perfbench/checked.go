package main

import (
	"time"

	"vcoma"
	"vcoma/internal/addr"
	"vcoma/internal/check"
	"vcoma/internal/machine"
	"vcoma/internal/obs"
	"vcoma/internal/sim"
)

// checkedBenches are the checked-test benchmarks. FMM, OCEAN and RAYTRACE
// take many seconds each under the checker, which would push one run past a
// minute.
var checkedBenches = []string{"RADIX", "FFT", "BARNES"}

// scanEvery is vcoma-check's default full-invariant-scan period.
const scanEvery = 512

// checkedTest runs RADIX, FFT and BARNES under L0-TLB and V-COMA at test
// scale with the invariant checker attached, through check.RunChecked's
// steps so set-up and run are timed apart.
func checkedTest(r *run) error {
	cs, err := cells(vcoma.ScaleTest, r.seed, checkedBenches, l0AndV)
	if err != nil {
		return err
	}
	if r.traced {
		return checkedTraced(r, cs)
	}
	setups := timeCells(r, "checked-test", cs, setupTrials, func(c cell) (time.Duration, time.Duration, sim.Result, error) {
		cr, err := checkedSteps(nil, c, nil)
		if err == nil {
			err = cr.ck.Err()
		}
		return cr.setup, cr.run, cr.res, err
	})
	r.rec.set("setup_s", median(setups))
	return nil
}

// timedChecker times every PostAccess of the checker it wraps.
type timedChecker struct {
	inner machine.AccessChecker
	t     timing
}

func (t *timedChecker) PostAccess(n addr.Node, va addr.Virtual, write bool, r machine.AccessResult) {
	t0 := time.Now()
	t.inner.PostAccess(n, va, write, r)
	t.t.add(time.Since(t0))
}

// checkedRun is one checked cell: its machine, result and checker, with
// set-up (machine.New, Build, Attach, Preload, Settle, sim.New) and run
// (Run, Final) timed apart.
type checkedRun struct {
	m          *machine.Machine
	res        sim.Result
	ck         *check.Checker
	setup, run time.Duration
}

// checkedSteps repeats check.RunChecked's steps for one cell. With a trace,
// every step is a span; with tc, the checker's PostAccess is timed.
func checkedSteps(tr *obs.Trace, c cell, tc *timedChecker) (checkedRun, error) {
	var cr checkedRun
	t0 := time.Now()
	setup := tr.StartSpan("setup")
	sp := setup.StartChild("machine.new")
	m, err := machine.New(c.cfg)
	sp.End()
	if err != nil {
		setup.End()
		return cr, err
	}
	sp = setup.StartChild("workload.build")
	prog, err := c.bench.Build(c.cfg.Geometry, c.cfg.Geometry.Nodes())
	sp.End()
	if err != nil {
		setup.End()
		return cr, err
	}
	sp = setup.StartChild("check.attach")
	ck := check.Attach(m, scanEvery, 0)
	if tc != nil {
		tc.inner = ck
		m.SetAccessChecker(tc)
	}
	sp.End()
	sp = setup.StartChild("machine.preload")
	m.Preload(prog.Layout())
	sp.End()
	sp = setup.StartChild("check.settle")
	ck.Settle()
	sp.End()
	sp = setup.StartChild("sim.new")
	eng, err := sim.New(m, prog.Streams())
	sp.End()
	setup.End()
	if err != nil {
		return cr, err
	}
	t1 := time.Now()
	engine := tr.StartSpan("engine")
	defer engine.End()
	sp = engine.StartChild("sim.run.checked")
	res, err := eng.Run()
	sp.End()
	if err != nil {
		return cr, err
	}
	sp = engine.StartChild("check.final")
	ck.Final()
	sp.End()
	return checkedRun{m: m, res: res, ck: ck, setup: t1.Sub(t0), run: time.Since(t1)}, nil
}

// checkedTraced runs, per cell, check.RunChecked itself as the untraced
// reference and the bare run of the same cell, then the traced reproduction
// of RunChecked's steps with the checker behind a timing wrapper.
func checkedTraced(r *run, cs []cell) error {
	var refWall, bareWall time.Duration
	ref := make([]string, len(cs))
	for i, c := range cs {
		r.rec.op()
		t0 := time.Now()
		out, err := check.RunChecked(c.cfg, c.bench, check.Options{ScanEvery: scanEvery})
		refWall += time.Since(t0)
		if !r.rec.check(err) {
			continue
		}
		ref[i] = digest(out.Sim)
		r.verify("checked-test", c.name, ref[i])
		_, st, rt, err := bare(c)
		if !r.rec.check(err) {
			continue
		}
		bareWall += st + rt
	}
	r.rec.set("check.overhead_ratio", refWall.Seconds()/bareWall.Seconds())

	tr := obs.NewTrace("checked-test")
	tc := &timedChecker{}
	var refs, violations uint64
	t0 := time.Now()
	for i, c := range cs {
		r.rec.op()
		cr, err := checkedSteps(tr, c, tc)
		if !r.rec.check(err) {
			continue
		}
		if digest(cr.res) != ref[i] {
			r.rec.fail("checked-test %s: the traced run diverged from check.RunChecked", c.name)
		}
		refs += cr.ck.Refs()
		violations += uint64(len(cr.ck.Violations()))
		addCounts(r.rec, cr.m, cr.res)
	}
	wall := time.Since(t0)
	self := finishTrace(r, "checked-test", tr, wall)
	if violations > 0 {
		r.rec.fail("checked-test: %d checker violations in the traced run", violations)
	}
	for _, name := range []string{"workload.build", "machine.new", "machine.preload"} {
		r.rec.set(name+"_s", self[name])
	}
	r.rec.set("check.post_access_ns", tc.t.mean())
	r.rec.set("check.refs", float64(refs))
	r.rec.set("check.violations", float64(violations))
	r.rec.set("trace.overhead_ratio", wall.Seconds()/refWall.Seconds())
	return nil
}
