package main

import (
	_ "embed"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// committedDigests holds, at the default seed, the digest of every cell's
// simulated timing (sim-small, checked-test) and of the report-small
// Markdown. A run at the default seed fails every operation whose output
// differs.
//
//go:embed digests.txt
var committedDigests string

const digestHeader = `# Default-seed output digests checked by perfbench (see README.md).
# Regenerate after an intended change to simulated results with:
#   bash perfbench/run.sh -write-digests
`

// parseDigests reads "<workload> <cell> <digest>" lines.
func parseDigests(text string) (map[string]string, error) {
	out := make(map[string]string)
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("digests.txt:%d: want 3 fields, got %d", i+1, len(f))
		}
		out[f[0]+" "+f[1]] = f[2]
	}
	return out, nil
}

// writeDigests runs every digest-checked workload once at the default seed
// and records its outputs.
func writeDigests(path string) error {
	r := &run{seed: defaultSeed, start: time.Now(), rec: newRecorder(), got: make(map[string]string)}
	work, err := os.MkdirTemp(".bench_build", "digests-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r.work = work
	for _, fn := range []func(*run) error{simSmall, checkedTest, reportSmall} {
		if err := fn(r); err != nil {
			return err
		}
	}
	if r.rec.failed > 0 {
		return fmt.Errorf("%d operations failed; digests not written", r.rec.failed)
	}
	keys := make([]string, 0, len(r.got))
	for k := range r.got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(digestHeader)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, r.got[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
