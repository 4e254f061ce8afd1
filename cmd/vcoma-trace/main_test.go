package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcoma"
	"vcoma/internal/addr"
	"vcoma/internal/experiments"
	"vcoma/internal/sim"
	"vcoma/internal/trace"
	"vcoma/internal/vm"
	"vcoma/internal/workload"
)

// writeTraceDir writes a hand-made trace directory: one 8 KiB region and,
// per processor, a read, a compute step, a write and a closing barrier.
// edit may rewrite any processor's events before they are recorded.
func writeTraceDir(t *testing.T, nodes int, edit func(p int, evs []trace.Event) []trace.Event) string {
	t.Helper()
	dir := t.TempDir()
	base := uint64(vm.LayoutBase)
	layout := fmt.Sprintf("data %d %d\n", base, 8192)
	if err := os.WriteFile(filepath.Join(dir, layoutFile), []byte(layout), 0o644); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nodes; p++ {
		own := addr.Virtual(base + uint64(p)*128)
		evs := []trace.Event{
			{Kind: trace.Read, Addr: own},
			{Kind: trace.Compute, Cycles: 10},
			{Kind: trace.Write, Addr: own + 64},
			{Kind: trace.Barrier, ID: 0},
		}
		if edit != nil {
			evs = edit(p, evs)
		}
		var buf bytes.Buffer
		rec, err := trace.NewRecorder(trace.NewSliceStream(evs), &buf)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := rec.Next(); !ok {
				break
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, fmt.Sprintf("proc%03d.vct", p))
		if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func replayConfig() vcoma.Config {
	return experiments.ConfigForScale(vcoma.Baseline(), workload.ScaleTest).WithScheme(vcoma.VCOMA)
}

func TestReplayHandWrittenTrace(t *testing.T) {
	cfg := replayConfig()
	dir := writeTraceDir(t, cfg.Geometry.Nodes(), nil)
	if err := doReplay(cfg, dir, nil, "", "", sim.Budget{}, nil); err != nil {
		t.Fatalf("replay of a well-formed trace: %v", err)
	}
}

// TestReplayRejectsAddressOutsideLayout corrupts one reference of one
// processor's file. The replay must fail naming the file, the event index
// and the address — not map the address, and not report the deadlock the
// early end causes at the barrier.
func TestReplayRejectsAddressOutsideLayout(t *testing.T) {
	cfg := replayConfig()
	const bad = addr.Virtual(1) << 45
	dir := writeTraceDir(t, cfg.Geometry.Nodes(), func(p int, evs []trace.Event) []trace.Event {
		if p == 5 {
			evs[2].Addr = bad
		}
		return evs
	})
	err := doReplay(cfg, dir, nil, "", "", sim.Budget{}, nil)
	if err == nil {
		t.Fatal("replay accepted an address outside the layout")
	}
	for _, want := range []string{"proc005.vct", "event 2", fmt.Sprintf("%#x", uint64(bad))} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestReplayRejectsTruncatedFile(t *testing.T) {
	cfg := replayConfig()
	dir := writeTraceDir(t, cfg.Geometry.Nodes(), nil)
	name := filepath.Join(dir, "proc003.vct")
	f, err := os.OpenFile(name, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A kind byte with no payload: the file ends mid-event.
	if _, err := f.Write([]byte{byte(trace.Read)}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = doReplay(cfg, dir, nil, "", "", sim.Budget{}, nil)
	if err == nil || !strings.Contains(err.Error(), "proc003.vct: event 4") || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("replay of a truncated file: %v", err)
	}
}
