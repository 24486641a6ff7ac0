package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// The tests re-execute the test binary as the repetition process, so the
// parent/child path the benchmark takes is the path under test.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func smokeConfig(t *testing.T, name string, seed int64, trace bool) config {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("workload %q is in BENCHMARK.json but not in the benchmark", name)
	}
	return config{workload: w, seed: seed, smoke: true, trace: trace}
}

// TestSmokePrintsEveryMetric runs every workload BENCHMARK.json names at
// tiny scale, untraced and traced, and requires every metric it names to be
// printed by name with its unit — and nothing to be missing from the result.
func TestSmokePrintsEveryMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w.Name, 1, trace)
			var out, errOut bytes.Buffer
			res := run(cfg, &out, &errOut)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace,
					res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			if miss := sp.missing(w.Name, trace, res); len(miss) > 0 {
				t.Errorf("%s trace=%v: result lacks %v", w.Name, trace, miss)
			}
			want, prefix := sp.EndToEnd, "metric "
			if trace {
				want, prefix = sp.PerLayer, "layer "
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if !printed(out.String(), prefix+m.Name+" = ", " "+m.Unit) {
					t.Errorf("%s trace=%v: %s not printed with unit %s", w.Name, trace, m.Name, m.Unit)
				}
			}
			if !strings.Contains(out.String(), "metric error_rate = 0 ") {
				t.Errorf("%s trace=%v: error_rate not printed as 0", w.Name, trace)
			}
		}
	}
}

func printed(out, start, end string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, start) && strings.HasSuffix(line, end) {
			return true
		}
	}
	return false
}

// TestMissingIsReported pins the guard against a gate that compares
// nothing: a dropped metric, a changed unit or an unlisted workload is named.
func TestMissingIsReported(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	res := result{Metrics: map[string]metric{}}
	for _, m := range sp.EndToEnd {
		res.Metrics[m.Name] = metric{1, m.Unit}
	}
	if miss := sp.missing("fig3-randwrite", false, res); len(miss) != 0 {
		t.Fatalf("complete result reported missing %v", miss)
	}
	drop := sp.EndToEnd[0].Name
	delete(res.Metrics, drop)
	res.Metrics[sp.EndToEnd[1].Name] = metric{1, "furlongs"}
	miss := strings.Join(sp.missing("no-such-workload", false, res), "; ")
	for _, want := range []string{"workload no-such-workload", drop, sp.EndToEnd[1].Name} {
		if !strings.Contains(miss, want) {
			t.Errorf("missing() = %q, want it to name %q", miss, want)
		}
	}
	if miss := sp.missing("fig3-randwrite", true, res); len(miss) != len(sp.PerLayer) {
		t.Errorf("traced check of an untraced result names %d of %d per-layer metrics", len(miss), len(sp.PerLayer))
	}
}

// smokeReps runs n untraced smoke repetitions of name, each in its own
// process.
func smokeReps(t *testing.T, name string, seed int64, n int) []record {
	t.Helper()
	cfg := smokeConfig(t, name, seed, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var reps []record
	for i := 0; i < n; i++ {
		r := runChild(ctx, cfg, false, 0, os.Stderr)
		if r.Err != "" {
			t.Fatalf("%s seed %d: %s", name, seed, r.Err)
		}
		reps = append(reps, r)
	}
	return reps
}

// TestForgedFingerprintFails forges one repetition's simulated output and
// requires the output check to fail the whole run.
func TestForgedFingerprintFails(t *testing.T) {
	cfg := smokeConfig(t, "mq-readmix", 1, false)
	reps := smokeReps(t, cfg.workload.name, 1, 2)
	if res := summarize(cfg, nil, reps, nil, io.Discard, io.Discard); !res.Correct {
		t.Fatalf("identical repetitions failed the output check")
	}
	forged := append([]record(nil), reps...)
	forged[1].Fingerprint = strings.Replace(forged[1].Fingerprint, "p99 ", "p99 1", 1)
	var errOut bytes.Buffer
	res := summarize(cfg, nil, forged, nil, io.Discard, &errOut)
	if res.Correct || res.Failed != res.Attempted || len(res.Metrics) != 0 {
		t.Fatalf("forged fingerprint passed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(errOut.String(), "differs from the first repetition") {
		t.Errorf("mismatch not explained: %q", errOut.String())
	}
	crashed := append([]record(nil), reps...)
	crashed[1] = record{Err: "panic: stalled"}
	if res := summarize(cfg, nil, crashed, nil, io.Discard, io.Discard); res.Correct {
		t.Errorf("a failed repetition passed the output check")
	}
}

// TestSeedsDiffer: the seed reaches the inputs (fingerprints differ between
// seeds) while each seed passes the output check on its own. Seed 2 is the
// held-out seed the README names.
func TestSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		a := smokeReps(t, w.name, 1, 2)
		b := smokeReps(t, w.name, 2, 2)
		cfg := smokeConfig(t, w.name, 1, false)
		for _, reps := range [][]record{a, b} {
			if res := summarize(cfg, nil, reps, nil, io.Discard, io.Discard); !res.Correct {
				t.Errorf("%s: a seed failed its own output check", w.name)
			}
		}
		if a[0].Fingerprint == b[0].Fingerprint {
			t.Errorf("%s: seeds 1 and 2 simulate identical output", w.name)
		}
	}
}

// TestSerialPumpReference: the fleet's shard-1 reference repetition matches
// the GOMAXPROCS-worker repetitions.
func TestSerialPumpReference(t *testing.T) {
	cfg := smokeConfig(t, "fleet-hash", 3, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ref := runChild(ctx, cfg, false, 1, os.Stderr)
	sharded := runChild(ctx, cfg, false, 4, os.Stderr)
	if ref.Err != "" || sharded.Err != "" {
		t.Fatalf("repetitions failed: %q, %q", ref.Err, sharded.Err)
	}
	if ref.Fingerprint != sharded.Fingerprint {
		t.Fatalf("serial and sharded pumps differ: %s", firstDiff(ref.Fingerprint, sharded.Fingerprint))
	}
}

var spinSink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	spinSink = x
}

// TestCPUSharesDecodesProfile decodes a real CPU profile of a busy loop in
// this package, which is bucketed as "other".
func TestCPUSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 5 {
		t.Fatalf("only %d samples", samples)
	}
	sum := 0.0
	for _, m := range cpuModules {
		sum += shares[m]
	}
	if sum < 0.999 || sum > 1.001 || shares["other"] < 0.5 {
		t.Errorf("shares %v (sum %v), want most in other", shares, sum)
	}
	if _, _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Errorf("garbage decoded without error")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ssdtp/internal/ftl.(*FTL).Write":           "ftl",
		"ssdtp/internal/sim.(*Engine).Step":         "sim",
		"ssdtp/internal/telemetry.appendRowJSON":    "telemetry",
		"ssdtp/internal/bitset.(*Set).Get":          "other",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKeyFn": "runtime",
		"main.runFig3":                              "other",
		"math/rand.(*Rand).Int63n":                  "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
