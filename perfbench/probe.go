package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// probe is what one repetition of a workload reports: host times taken
// from outside the simulator, the simulated fingerprint, and — in a traced
// repetition — spans around the public calls and a CPU profile of the
// measured phase.
type probe struct {
	traced bool

	start        time.Time
	measureStart time.Time
	setup        time.Duration
	measure      time.Duration

	attempted, failed int64
	requests          int64
	allocs            float64 // heap allocations in the measured phase
	gcCycles          float64
	gcCPU, totalCPU   float64
	events            int64 // engine events fired in the measured phase

	fp    strings.Builder
	sim   map[string]float64       // deterministic per-layer simulated metrics
	spans map[string]time.Duration // benchmark-side spans (traced only)

	rt0  []metrics.Sample
	cpu  bytes.Buffer
	kept []any
}

// runtimeMetrics are read around the measured phase.
var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	panic(fmt.Sprintf("runtime metric %s unsupported on this Go version", s.Name))
}

// cpuProfileHz is the sampling rate asked of the traced repetition's CPU
// profile: ten times pprof's default, so a one-second measured phase yields
// enough samples to bucket by module. The kernel may deliver fewer.
const cpuProfileHz = 1000

// record is one repetition's report. The child process that ran the
// repetition prints it as one JSON line for the parent to collect.
type record struct {
	Err         string             `json:"err,omitempty"`
	Setup       float64            `json:"setup_s"`
	Measure     float64            `json:"measure_s"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Requests    int64              `json:"requests"`
	Allocs      float64            `json:"allocs"`
	LiveHeap    float64            `json:"live_heap_bytes"`
	GCCycles    float64            `json:"gc_cycles"`
	GCCPUFrac   float64            `json:"gc_cpu_frac"`
	Events      int64              `json:"events"`
	Fingerprint string             `json:"fingerprint"`
	Sim         map[string]float64 `json:"sim"`
	Spans       map[string]float64 `json:"spans,omitempty"`
	CPU         map[string]float64 `json:"cpu,omitempty"`
}

func (r *record) reqPerSec() float64 { return float64(r.Requests) / r.Measure }

// repeat runs one cold repetition of w. A panic anywhere in it is reported
// in the record's Err: the repetition then counts as failed.
func repeat(w workloadDef, p params, traced bool) (rec record) {
	pr := &probe{traced: traced, sim: map[string]float64{}, spans: map[string]time.Duration{}}
	// The repetition's process exits after reporting, so a panic needs no
	// clean-up beyond the report, not even of a running CPU profile.
	defer func() {
		if r := recover(); r != nil {
			rec = record{Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	pr.start = time.Now()
	w.run(p, pr)
	if pr.measure == 0 {
		panic("no measured phase")
	}
	// Live heap while the workload's devices are still reachable (keep).
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	pr.kept = nil
	rec = record{
		Setup:       pr.setup.Seconds(),
		Measure:     pr.measure.Seconds(),
		Attempted:   pr.attempted,
		Failed:      pr.failed,
		Requests:    pr.requests,
		Allocs:      pr.allocs,
		LiveHeap:    sampleValue(live[0]),
		GCCycles:    pr.gcCycles,
		GCCPUFrac:   ratio(pr.gcCPU, pr.totalCPU),
		Events:      pr.events,
		Fingerprint: pr.fp.String(),
		Sim:         pr.sim,
	}
	if traced {
		rec.Spans = map[string]float64{}
		for k, v := range pr.spans {
			rec.Spans[k] = v.Seconds()
		}
		shares, samples, err := cpuShares(pr.cpu.Bytes())
		if err == nil && samples == 0 {
			err = fmt.Errorf("cpu profile holds no samples")
		}
		if err != nil {
			return record{Err: err.Error()}
		}
		rec.CPU = shares
	}
	return rec
}

// span runs f and, in a traced repetition, adds its host time to name.
func (pr *probe) span(name string, f func()) {
	if !pr.traced {
		f()
		return
	}
	t := time.Now()
	f()
	pr.spans[name] += time.Since(t)
}

// fingerprint appends one line to the repetition's simulated fingerprint.
func (pr *probe) fingerprint(format string, args ...any) {
	fmt.Fprintf(&pr.fp, format+"\n", args...)
}

// issue accounts requests issued and completed by one client.
func (pr *probe) issue(issued, completed int64) {
	pr.attempted += issued
	pr.failed += issued - completed
}

// keep holds objects reachable until the live heap has been read.
func (pr *probe) keep(objs ...any) { pr.kept = append(pr.kept, objs...) }

func (pr *probe) beginMeasure() {
	pr.setup = time.Since(pr.start)
	if pr.traced {
		// StartCPUProfile sets pprof's default rate; setting ours first makes
		// it keep ours (and print a harmless "cannot set" line on stderr).
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&pr.cpu); err != nil {
			panic(fmt.Sprintf("cpu profile: %v", err))
		}
	}
	pr.rt0 = readRuntime()
	pr.measureStart = time.Now()
}

func (pr *probe) endMeasure(requests int64) {
	pr.measure = time.Since(pr.measureStart)
	rt1 := readRuntime()
	if pr.traced {
		pprof.StopCPUProfile()
	}
	d := func(i int) float64 { return sampleValue(rt1[i]) - sampleValue(pr.rt0[i]) }
	pr.requests = requests
	pr.allocs = d(0) + d(1)
	pr.gcCycles = d(2)
	pr.gcCPU, pr.totalCPU = d(3), d(4)
	pr.spans["span.measure_s"] = pr.measure
}
