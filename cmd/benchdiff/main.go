// Command benchdiff compares two benchmark baselines produced by
// scripts/bench.sh and fails when a selected metric regresses beyond a
// threshold. CI diffs the committed baselines (BENCH_N.json vs BENCH_N-1.json)
// so a PR that slows the scheduler or stats hot paths fails deterministically,
// without re-running timed benchmarks on shared runners.
//
// Usage:
//
//	benchdiff [-metric ns/op] [-filter REGEX] [-max-regress PCT] old.json new.json
//
// A gate that compares nothing must not pass: the run fails when a benchmark
// the -filter selects is present in only one file (a rename, or a name
// suffix such as the -N that GOMAXPROCS>1 appends), or when the filter
// selects no benchmark at all. Unselected benchmarks present in only one
// file are reported and never fail the run (experiments come and go; the
// gate is for hot paths).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

type baseline struct {
	GoVersion  string      `json:"go_version"`
	CPU        string      `json:"cpu"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

func load(path string) (map[string]benchmark, *baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]benchmark, len(b.Benchmarks))
	for _, bm := range b.Benchmarks {
		m[bm.Name] = bm
	}
	return m, &b, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it compares the two baselines named in args, writes
// the report to stdout and returns the exit status (1 on a failed gate, 2 on
// a usage or input error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	metric := fs.String("metric", "ns/op", "metric to compare")
	filter := fs.String("filter", ".", "regexp selecting benchmarks that gate the run")
	maxRegress := fs.Float64("max-regress", 10, "fail when the metric grows more than this percentage")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] old.json new.json")
		return 2
	}
	re, err := regexp.Compile(*filter)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	oldSet, oldMeta, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newSet, newMeta, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if oldMeta.CPU != newMeta.CPU || oldMeta.GoVersion != newMeta.GoVersion {
		fmt.Fprintf(stdout, "note: baselines from different environments (%s/%s vs %s/%s); comparing anyway\n",
			oldMeta.GoVersion, oldMeta.CPU, newMeta.GoVersion, newMeta.CPU)
	}

	names := make([]string, 0, len(newSet))
	for name := range newSet {
		names = append(names, name)
	}
	for name := range oldSet {
		if _, ok := newSet[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	gated, failed, missing := 0, 0, 0
	for _, name := range names {
		ob, inOld := oldSet[name]
		nb, inNew := newSet[name]
		gate := " "
		if re.MatchString(name) {
			gate = "*"
			gated++
		}
		if !inOld || !inNew {
			status, where := "    ", "new"
			if !inNew {
				where = "gone"
			}
			if gate == "*" {
				status = "FAIL"
				missing++
			}
			fmt.Fprintf(stdout, "  %s %s %-50s %s\n", status, gate, name, where)
			continue
		}
		ov, nv := ob.Metrics[*metric], nb.Metrics[*metric]
		if ov == 0 {
			continue
		}
		pct := (nv - ov) / ov * 100
		status := "ok  "
		if gate == "*" && pct > *maxRegress {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "  %s %s %-50s %12.4g -> %12.4g  %+7.2f%%\n", status, gate, name, ov, nv, pct)
	}
	switch {
	case gated == 0:
		fmt.Fprintf(stdout, "-filter %q selects no benchmark: nothing was compared\n", *filter)
		return 1
	case missing > 0:
		fmt.Fprintf(stdout, "%d gated benchmark(s) present in only one file\n", missing)
		return 1
	case failed > 0:
		fmt.Fprintf(stdout, "%d benchmark(s) regressed more than %.1f%% on %s\n", failed, *maxRegress, *metric)
		return 1
	}
	fmt.Fprintf(stdout, "no gated benchmark regressed more than %.1f%% on %s\n", *maxRegress, *metric)
	return 0
}
