package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// host fingerprints the machine a result was measured on. Host times are
// only comparable between outputs with equal fingerprints.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
}

// cpuModel reads the processor model name from /proc/cpuinfo; "unknown" on
// hosts without it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// record is one run as saved with -out: where it ran, what it ran, and the
// result line it printed.
type record struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// compareFiles prints new/old for every metric the two saved outputs share.
// Outputs from different hosts are refused: their host times say nothing
// about the code.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	for _, o := range olds {
		for _, n := range news {
			if o.Host != n.Host {
				return fmt.Errorf("refusing to compare outputs from different hosts: %s has %s, %s has %s",
					oldPath, o.Host, newPath, n.Host)
			}
		}
	}
	key := func(r record) string { return fmt.Sprintf("%s seed=%d trace=%d", r.Workload, r.Seed, r.Trace) }
	byKey := make(map[string]record)
	for _, n := range news {
		byKey[key(n)] = n
	}
	for _, o := range olds {
		n, ok := byKey[key(o)]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\n", key(o))
		names := make([]string, 0, len(o.Result.Metrics))
		for name := range o.Result.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			om := o.Result.Metrics[name]
			nm, ok := n.Result.Metrics[name]
			if !ok {
				continue
			}
			ratio := "-"
			if om.Value != 0 {
				ratio = fmt.Sprintf("%.3f", nm.Value/om.Value)
			}
			fmt.Fprintf(w, "  %-30s %14.6g %14.6g %-6s new/old=%s\n", name, om.Value, nm.Value, om.Unit, ratio)
		}
	}
	return nil
}
