// Command perfbench is the simulator's end-to-end benchmark. It builds each
// workload from the layers' public calls, times those calls from outside the
// simulator, checks the simulated results of every repetition against each
// other, and prints one JSON result line. See README.md for the workloads,
// the metrics and how to read them.
//
//	go run . --workload fig3-randwrite --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the untraced run's metrics, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"allocs_per_req", "count"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's metrics, with their units.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, m := range cpuModules {
		add("frac", "cpu."+m)
	}
	add("s", "span.prefill_s", "span.snapshot_s", "span.clone_s", "span.measure_s",
		"span.report_s", "span.telemetry_encode_s")
	add("count", "sim.events")
	add("count/req", "sim.events_per_req")
	add("ns", "sim.host_ns_per_event")
	add("frac", "runtime.gc_cpu_frac")
	add("count", "runtime.gc_cycles")
	add("frac", "trace.overhead_frac")
	add("count", "ftl.host_pages", "ftl.gc_pages")
	add("ratio", "ftl.waf")
	add("count", "ftl.gc_runs", "ftl.erases", "ftl.cache_hits", "ftl.cache_read_hits",
		"ftl.map_pages", "ftl.parity_pages", "ftl.page_reads", "ftl.gc_page_reads")
	add("frac", "onfi.bus_busy_frac")
	add("us", "onfi.bus_wait_us_per_req")
	add("frac", "attr.host_queue_share", "attr.dispatch_share", "attr.cache_hit_share",
		"attr.cache_stall_share", "attr.chan_wait_share", "attr.nand_share",
		"attr.gc_stall_share", "attr.p99_gc_stall_share")
	add("count", "workload.requests")
	add("ms", "workload.sim_ms")
	add("us", "workload.sim_p50_us", "workload.sim_p99_us", "hostif.read_p99_us", "hostif.write_p99_us")
	add("count", "fleet.shared_drives")
	add("ppm", "fleet.blast_ppm_max", "fleet.tail_gc_share_ppm")
	add("count", "cow.cow_copies")
	add("MB", "cow.private_mb", "cow.image_mb", "cow.resident_mb")
	add("count", "telemetry.pages")
	add("bytes", "telemetry.jsonl_bytes")
	return out
}()

// config is one invocation of the benchmark.
type config struct {
	workload workloadDef
	seed     int64
	smoke    bool // tiny workload sizes, for the benchmark's own tests
	seconds  float64
	trace    bool
}

func (c config) params() params {
	if c.smoke {
		return smokeParams(c.seed)
	}
	return fullParams(c.seed)
}

// childEnv marks a process started by run to perform one repetition.
const childEnv = "PERFBENCH_CHILD"

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	name := flag.String("workload", "", "workload to run: fig3-randwrite|mq-readmix|fleet-hash")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "host seconds of untraced repetitions to measure")
	trace := flag.Int("trace", 0, "1 adds one traced repetition and prints per-layer metrics instead")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{workload: w, seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	res := run(cfg, os.Stdout, os.Stderr)
	// Run from the repository root, the result must carry every metric
	// BENCHMARK.json names: a gate comparing nothing must not pass.
	if sp, err := loadSpec("BENCHMARK.json"); err == nil {
		if miss := sp.missing(w.name, cfg.trace, res); len(miss) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: result lacks what BENCHMARK.json names: %s\n", strings.Join(miss, ", "))
			res.Correct, res.Failed = false, res.Attempted
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spec is the part of BENCHMARK.json a result is checked against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// missing lists what the spec names for workload and mode but res lacks:
// an unlisted workload, an absent metric, or one with another unit.
func (sp spec) missing(workload string, trace bool, res result) []string {
	var out []string
	listed := false
	for _, w := range sp.Workloads {
		listed = listed || w.Name == workload
	}
	if !listed {
		out = append(out, "workload "+workload)
	}
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			out = append(out, "metric "+m.Name+" ("+m.Unit+")")
		}
	}
	if len(want) == 0 {
		out = append(out, "any metric")
	}
	return out
}

// childMain performs one repetition and prints its record.
func childMain(args []string, out, errOut io.Writer) int {
	flags := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	flags.SetOutput(errOut)
	name := flags.String("workload", "", "")
	seed := flags.Int64("seed", 1, "")
	smoke := flags.Bool("smoke", false, "")
	traced := flags.Bool("traced", false, "")
	shard := flags.Int("shard", 0, "")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(errOut, "perfbench child: unknown workload %q\n", *name)
		return 2
	}
	p := config{seed: *seed, smoke: *smoke}.params()
	p.Shard = *shard
	line, err := json.Marshal(repeat(w, p, *traced))
	if err != nil {
		fmt.Fprintln(errOut, "perfbench child:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// childDeadline bounds a whole invocation: a repetition still running then
// is killed, and the run fails instead of overrunning its time limit.
const childDeadline = 150 * time.Second

// runChild performs one repetition in a fresh process, so every repetition
// starts as cold as a user's first run — an empty heap, nothing cached — and
// none inherits another's heap.
func runChild(ctx context.Context, cfg config, traced bool, shard int, errOut io.Writer) record {
	self, err := os.Executable()
	if err != nil {
		return record{Err: fmt.Sprintf("locate own executable: %v", err)}
	}
	cmd := exec.CommandContext(ctx, self,
		"--workload", cfg.workload.name, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--smoke="+strconv.FormatBool(cfg.smoke), "--traced="+strconv.FormatBool(traced),
		"--shard", strconv.Itoa(shard))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = errOut
	stdout, err := cmd.Output()
	if err != nil {
		return record{Err: fmt.Sprintf("repetition process: %v", err)}
	}
	var rec record
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &rec); err != nil {
		return record{Err: fmt.Sprintf("repetition record: %v", err)}
	}
	return rec
}

// run measures cfg: cold untraced repetitions until the time budget is
// spent (the end-to-end numbers are their medians), then, with trace, one
// traced repetition for the per-layer numbers. fleet-hash first runs one
// repetition on the serial pump, as the reference the sharded pump must
// reproduce. Every repetition's fingerprint must equal the first one's.
func run(cfg config, out, errOut io.Writer) result {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	fmt.Fprintf(out, "provenance %s\n", provenance(cfg))

	var ref *record
	if cfg.workload.sharded {
		r := runChild(ctx, cfg, false, 1, errOut)
		ref = &r
	}
	budget, minReps := cfg.seconds, 3
	if cfg.trace {
		budget, minReps = cfg.seconds/2, 2
	}
	var reps []record
	for len(reps) < minReps || time.Since(start).Seconds() < budget {
		r := runChild(ctx, cfg, false, 0, errOut)
		reps = append(reps, r)
		if r.Err != "" {
			break
		}
	}
	var traced *record
	if cfg.trace && reps[len(reps)-1].Err == "" {
		r := runChild(ctx, cfg, true, 0, errOut)
		traced = &r
	}
	return summarize(cfg, ref, reps, traced, out, errOut)
}

// summarize checks every repetition's simulated output against the first
// one's and reduces the repetitions to the result line. ref is the serial-
// pump reference (fleet-hash only) and traced the traced repetition; either
// may be nil.
func summarize(cfg config, ref *record, reps []record, traced *record, out, errOut io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var want string
	check := func(label string, r *record) {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		err := r.Err
		if err == "" && r.Failed > 0 {
			err = fmt.Sprintf("%d of %d requests failed", r.Failed, r.Attempted)
		}
		if err == "" && want == "" {
			want = r.Fingerprint
		} else if err == "" && r.Fingerprint != want {
			err = "simulated output differs from the first repetition: " + firstDiff(want, r.Fingerprint)
		}
		if err != "" {
			fmt.Fprintf(errOut, "perfbench: %s %s: %s\n", cfg.workload.name, label, err)
			res.Correct = false
			return
		}
		fmt.Fprintf(out, "%s %s: setup %.3f s, %d requests in %.3f s, %.0f req/s, %.4f allocs/req, live heap %.2f MB, fingerprint %s\n",
			cfg.workload.name, label, r.Setup, r.Requests, r.Measure, r.reqPerSec(),
			r.Allocs/float64(r.Requests), r.LiveHeap/(1<<20), fpHash(r.Fingerprint))
	}
	if ref != nil {
		check("serial-pump reference", ref)
	}
	for i := range reps {
		check(fmt.Sprintf("rep %d", i+1), &reps[i])
	}
	if traced != nil {
		check("traced", traced)
	} else if cfg.trace {
		res.Correct = false
	}
	if !res.Correct || len(reps) == 0 {
		res.Correct, res.Failed = false, res.Attempted
		fmt.Fprintf(out, "metric error_rate = 1 (output check failed)\n")
		return res
	}

	e2e := map[string]float64{
		"setup_s":        median(reps, func(r record) float64 { return r.Setup }),
		"req_per_s":      median(reps, func(r record) float64 { return r.reqPerSec() }),
		"allocs_per_req": median(reps, func(r record) float64 { return r.Allocs / float64(r.Requests) }),
		"live_heap_mb":   median(reps, func(r record) float64 { return r.LiveHeap / (1 << 20) }),
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "metric %s = %.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	fmt.Fprintf(out, "metric error_rate = %g (%d of %d requests failed)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		return res
	}
	layer := perLayerMetrics(traced, e2e["req_per_s"], median(reps, func(r record) float64 { return r.Measure }))
	for _, m := range perLayer {
		fmt.Fprintf(out, "layer %s = %.6g %s\n", m.name, layer[m.name], m.unit)
		res.Metrics[m.name] = metric{layer[m.name], m.unit}
	}
	return res
}

// perLayerMetrics assembles the traced repetition's numbers. untracedRate
// and untracedMeasure are the untraced medians it is compared against.
func perLayerMetrics(tr *record, untracedRate, untracedMeasure float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range tr.Sim {
		m[k] = v
	}
	for k, v := range tr.CPU {
		m["cpu."+k] = v
	}
	for k, v := range tr.Spans {
		m[k] = v
	}
	m["sim.events"] = float64(tr.Events)
	m["sim.events_per_req"] = ratio(float64(tr.Events), float64(tr.Requests))
	m["sim.host_ns_per_event"] = ratio(untracedMeasure*1e9, float64(tr.Events))
	m["runtime.gc_cpu_frac"] = tr.GCCPUFrac
	m["runtime.gc_cycles"] = tr.GCCycles
	m["trace.overhead_frac"] = 1 - ratio(tr.reqPerSec(), untracedRate)
	return m
}

func median(reps []record, f func(record) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// firstDiff names the first fingerprint line that differs.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(lb), len(la))
}

// provenance renders what a result depends on besides the code: toolchain,
// host, build revision, seed and workload parameters.
func provenance(cfg config) string {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	b, err := json.Marshal(map[string]any{
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu":         cpuModel(),
		"revision":    rev,
		"dirty":       dirty,
		"workload":    cfg.workload.name,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"params":      cfg.params(),
		"fleet_shard": runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return fmt.Sprintf("{%q: %q}", "error", err.Error())
	}
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fpHash is a short printable digest of a fingerprint.
func fpHash(fp string) string {
	h := fnv.New64a()
	h.Write([]byte(fp))
	return fmt.Sprintf("%016x", h.Sum64())
}
