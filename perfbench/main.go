// Command perfbench is the repository's benchmark. It drives a real
// pxserve process with a seeded internal/sim op stream over one
// closed-loop connection, checks every response against expectations
// computed before the server starts, SIGKILLs and restarts the server
// to time recovery and audit every acknowledged write, and prints the
// end-to-end metrics. With -trace 1 it also replays the same stream
// in-process, timing each layer's calls, and prints per-layer metrics
// instead.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload query-large --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it list
// every metric with its unit and sample count. The exit code is 1 when
// any response differs from the expected one or an acknowledged write
// is missing after the restart, 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed of the initial documents and the op stream")
		seconds = flag.Int("seconds", 10, "run length: the window holds a workload-specific multiple of seconds ops of each measured route")
		trace   = flag.Int("trace", 0, "1 replays the stream in-process and prints per-layer metrics; 0 prints end-to-end metrics")
		pxserve = flag.String("pxserve", "", "path of the pxserve binary")
		workdir = flag.String("workdir", "", "directory for warehouses, logs and span files")
	)
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *pxserve == "" || *workdir == "" {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		flag.Usage()
		return 2
	}
	dir, err := filepath.Abs(*workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := runBench(config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, pxserve: *pxserve, workdir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ms := res.endToEnd
	if *trace == 1 {
		ms = res.perLayer
	}
	fmt.Printf("perfbench: workload %s seed %d: %d ops attempted, %d failed, %d audit checks\n",
		wl.name, *seed, res.attempted, res.failed, res.checks)
	if res.spanFile != "" {
		fmt.Printf("perfbench: spans written to %s\n", res.spanFile)
	}
	for _, m := range ms {
		n := ""
		if m.samples > 0 {
			n = fmt.Sprintf("n=%d", m.samples)
		}
		fmt.Printf("  %-36s %14.6f %-6s %s\n", m.name, m.value, m.unit, n)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, make(map[string]value)}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
