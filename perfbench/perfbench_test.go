package main

import (
	"encoding/json"
	"os"
	"testing"

	"vcoma"
	"vcoma/internal/check"
	"vcoma/internal/obs"
	"vcoma/internal/trace"
)

// TestStepsMatchRun checks that the benchmark's split of vcoma.Run into
// set-up and run, and its traced reproduction over pregenerated streams,
// simulate exactly what vcoma.Run does, for every sim-small cell.
func TestStepsMatchRun(t *testing.T) {
	cs, err := cells(vcoma.ScaleSmall, defaultSeed, allBenches, l0AndV)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		want, err := vcoma.Run(c.cfg, c.bench)
		if err != nil {
			t.Fatal(err)
		}
		res, _, _, err := bare(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, w := digest(res), digest(want.Sim); got != w {
			t.Errorf("%s: set-up/run steps digest %s, vcoma.Run %s", c.name, got, w)
		}
		_, res, _, err = tracedCell(nil, c, &stepTimer{})
		if err != nil {
			t.Fatal(err)
		}
		if got, w := digest(res), digest(want.Sim); got != w {
			t.Errorf("%s: traced steps digest %s, vcoma.Run %s", c.name, got, w)
		}
	}
}

// TestCheckedStepsMatchRunChecked checks checked-test's repetition of
// check.RunChecked's steps against RunChecked itself.
func TestCheckedStepsMatchRunChecked(t *testing.T) {
	cs, err := cells(vcoma.ScaleTest, defaultSeed, checkedBenches, l0AndV)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		want, err := check.RunChecked(c.cfg, c.bench, check.Options{ScanEvery: scanEvery})
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkedSteps(nil, c, &timedChecker{})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := digest(got.res), digest(want.Sim); g != w {
			t.Errorf("%s: checked steps digest %s, RunChecked %s", c.name, g, w)
		}
		if g, w := got.ck.Refs(), want.Checker.Refs(); g != w {
			t.Errorf("%s: checker saw %d references, RunChecked's %d", c.name, g, w)
		}
	}
}

// TestPregeneratedStreamsBatch checks that pregeneration hands the engine
// batch streams, as the generators it replaces do.
func TestPregeneratedStreamsBatch(t *testing.T) {
	b, err := benchmark("RADIX", vcoma.ScaleTest, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vcoma.Baseline()
	prog, err := b.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	streams, n := pregenerate(prog)
	if n == 0 {
		t.Fatal("no events pregenerated")
	}
	for i, s := range streams {
		if _, ok := s.(trace.BatchStream); !ok {
			t.Errorf("stream %d (%T) is not a trace.BatchStream", i, s)
		}
	}
}

func TestDefaultSeedKeepsStockInputs(t *testing.T) {
	if got := derive(0x7AD1, defaultSeed); got != 0x7AD1 {
		t.Errorf("derive at the default seed = %#x, want the stock seed", got)
	}
	if derive(0x7AD1, defaultSeed+1) == 0x7AD1 {
		t.Error("another seed kept the stock seed")
	}
}

// TestSelfTime checks self time on a span whose children overlap (two
// runner workers): the union of the children counts once.
func TestSelfTime(t *testing.T) {
	n := obs.SpanNode{Name: "p", StartUS: 0, DurUS: 100, Children: []obs.SpanNode{
		{Name: "a", StartUS: 10, DurUS: 30},
		{Name: "b", StartUS: 20, DurUS: 30},
		{Name: "c", StartUS: 90, DurUS: 50},
	}}
	if got := covered(n); got != 50 {
		t.Errorf("covered = %d µs, want 50", got)
	}
	self, top, count := spanTimes(obs.SpanTree{Spans: []obs.SpanNode{n}})
	if self["p"] != 50e-6 || top["p"] != 100e-6 || count != 4 {
		t.Errorf("self %v top %v count %d", self, top, count)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics the
// benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, perfbench %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
