// Command perfbench runs whole xdse campaigns through the public exp, eval,
// evalcache, fleet and serve APIs, checks every run's output against pinned
// fingerprints, and prints the campaign's host-time metrics (or, with
// --trace 1, the per-layer split of a traced campaign) as one JSON line.
// See README.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload codesign-mapping --seed 1 --seconds 22 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload to run: static-surrogate, codesign-mapping, durable-restart, fleet-loopback or fleet-loopback-hm")
	seed := flag.Int64("seed", 1, "workload seed; the campaign configuration is generated from it")
	seconds := flag.Float64("seconds", 22, "measure rounds of campaigns (one per campaign seed) for about this many seconds: none starts that would end more than half of itself past them, but at least one runs")
	trace := flag.Int("trace", 0, "1 alternates untraced and traced campaigns and reports the per-layer metrics")
	pin := flag.String("pin", "", "instead of measuring, run the seed's reference campaign and record its fingerprints in this pins file")
	flag.Parse()
	s, ok := specByName(*workloadName)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> with --trace 0 or 1 and --seconds > 0")
		flag.Usage()
		return 2
	}
	if *pin != "" {
		if err := pinSeed(*pin, s, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", s.name, os.Getpid()))
	defer os.RemoveAll(work)
	res, err := measure(s, *seed, *seconds, *trace == 1, work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
