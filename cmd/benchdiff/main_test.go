package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ciFilter is the filter the CI baseline gate runs with.
const ciFilter = "BenchmarkEngine|BenchmarkRecorder"

// runDiff runs the command on two baselines and returns its exit status and
// report.
func runDiff(t *testing.T, filter, oldPath, newPath string) (int, string) {
	t.Helper()
	var out strings.Builder
	code := run([]string{"-filter", filter, "-max-regress", "10", oldPath, newPath}, &out, io.Discard)
	return code, out.String()
}

// suffixedCopy writes a copy of the baseline at path with suffix appended to
// every benchmark name, as a multi-core host's `go test -bench` names them.
func suffixedCopy(t *testing.T, path, suffix string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, b := range doc["benchmarks"].([]any) {
		bm := b.(map[string]any)
		bm["name"] = bm["name"].(string) + suffix
	}
	data, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "renamed.json")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// The committed CI comparison passes: every gated benchmark is in both
// files and none regressed past the threshold.
func TestCIGatePasses(t *testing.T) {
	code, out := runDiff(t, ciFilter, "../../BENCH_9.json", "../../BENCH_10.json")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	for _, name := range []string{"BenchmarkEngineScheduleCancel", "BenchmarkEngineThroughput", "BenchmarkRecorderPercentile"} {
		if !strings.Contains(out, "ok   * "+name) {
			t.Errorf("gated %s not compared:\n%s", name, out)
		}
	}
}

// Renaming every benchmark (the -2 suffix a 2-CPU host adds) leaves the gate
// comparing nothing; it must fail rather than report "no regression".
func TestRenamedBaselineFails(t *testing.T) {
	renamed := suffixedCopy(t, "../../BENCH_10.json", "-2")
	code, out := runDiff(t, ciFilter, "../../BENCH_10.json", renamed)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL * BenchmarkEngineThroughput ") || !strings.Contains(out, "present in only one file") {
		t.Errorf("report does not name the missing gated benchmarks:\n%s", out)
	}
}

// A filter that selects no benchmark compares nothing and fails.
func TestEmptyFilterFails(t *testing.T) {
	code, out := runDiff(t, "^BenchmarkNoSuchThing$", "../../BENCH_9.json", "../../BENCH_10.json")
	if code != 1 || !strings.Contains(out, "selects no benchmark") {
		t.Fatalf("exit %d, want 1 with a nothing-compared message:\n%s", code, out)
	}
}
