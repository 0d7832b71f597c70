// Command bench is the repository's benchmark: four fixed-state
// workloads driven over real loopback sockets against the real ctlogd,
// and a traced depth replay that itemises every layer a request
// crosses. See README.md in this directory and BENCHMARK.json at the
// root of the repository.
//
//	go run ./bench --workload submit|crawl|audit|mixed --seed N --seconds S --trace 0|1
//	go run ./bench -repeat N        every workload N times, spread against the bounds
//	go run ./bench                  every workload once, then the traced run
//
// The last line of standard output of a single run is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "one of submit, crawl, audit, mixed; empty runs them all")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 0, "measured window in seconds (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = the traced run (per-layer metrics) instead of the timed run")
	repeat := flag.Int("repeat", 0, "run every workload this many times, each with another seed, and report the spread")
	flag.Parse()

	cleanupOnSignal()
	defer runCleanups()
	if err := dispatch(*workload, *seed, *seconds, *trace, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func dispatch(workload string, seed int64, seconds, trace, repeat int) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	p := defaultParams(seconds)

	if workload == "" {
		if repeat <= 0 {
			repeat = 1
		}
		if err := runRepeated(root, spec, seed, p, repeat); err != nil {
			return err
		}
		if repeat > 1 {
			return nil
		}
		workload = workloadDefs[0].name
		trace = 1
	}
	def, err := findWorkload(workload)
	if err != nil {
		return err
	}
	if trace == 1 {
		res, err := runTrace(root, def, seed, p)
		if err != nil {
			return err
		}
		return res.print(os.Stdout, spec.PerLayer)
	}
	res, err := runWorkload(root, def, seed, p)
	if err != nil {
		return err
	}
	return res.print(os.Stdout, spec.EndToEnd)
}
