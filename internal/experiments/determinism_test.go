package experiments

import (
	"strings"
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/telemetry"
)

// withPool runs f with the given pool installed, restoring the previous
// pool afterwards so tests don't leak configuration into each other.
func withPool(p *runner.Pool, f func()) {
	prev := pool()
	SetPool(p)
	defer SetPool(prev)
	f()
}

// The determinism-under-parallelism contract: a rendered table is a pure
// function of (experiment, scale, seed) — the worker count must never show
// through. fig3 (plus its derived tabS1) and the tabS4 24-point factorial
// are the acceptance artifacts.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid regeneration")
	}
	artifacts := []struct {
		name   string
		render func() string
	}{
		{"fig3+tabS1", func() string {
			res := Fig3TailLatency(Quick, 42)
			return res.Table() + TableS1MeanDelta(res).Table()
		}},
		{"tabS4", func() string { return TabS4DesignSweep(Quick, 42).Table() }},
		{"fleet", func() string { return FleetTail(Quick, 42).Table() }},
		{"transparency", func() string { return Transparency(Quick, 42).Table() }},
	}
	for _, a := range artifacts {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			var serial, serial2, wide string
			withPool(&runner.Pool{Workers: 1}, func() {
				serial = a.render()
				serial2 = a.render()
			})
			if serial != serial2 {
				t.Fatalf("%s: two serial same-seed runs differ:\n%s\n--- vs ---\n%s", a.name, serial, serial2)
			}
			withPool(&runner.Pool{Workers: 8}, func() { wide = a.render() })
			if wide != serial {
				t.Fatalf("%s: -parallel 8 output differs from serial:\n%s\n--- vs ---\n%s", a.name, wide, serial)
			}
			checkDigest(t, a.name, serial)
		})
	}
}

// The observability stream is held to the same contract as the tables:
// spans carry simulated-clock timestamps and cells are keyed by label, so
// the exported JSONL trace, metrics dump, Perfetto trace, and the -timeline
// CSV rendered from the log-page set must all be byte-identical run to run
// and for any worker count.
// Not parallel with the other determinism tests: each traced run buffers
// every span of the grid in memory.
func TestTraceByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid regeneration")
	}
	type export struct{ trace, metrics, perfetto, timeline string }
	render := func(workers int) export {
		col := obs.NewCollector()
		prev := observer()
		SetObserver(col)
		defer SetObserver(prev)
		ts := telemetry.NewSet(sim.Millisecond)
		prevTS := telemetrySet()
		SetTelemetry(ts)
		defer SetTelemetry(prevTS)
		withPool(&runner.Pool{Workers: workers}, func() { TabS3OpenChannel(Quick, 42) })
		var tb, mb, pb, lb strings.Builder
		if err := col.WriteJSONL(&tb); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		if err := col.WritePerfetto(&pb); err != nil {
			t.Fatal(err)
		}
		if err := ts.WriteCSV(&lb); err != nil {
			t.Fatal(err)
		}
		return export{tb.String(), mb.String(), pb.String(), lb.String()}
	}
	e1a := render(1)
	e1b := render(1)
	e8 := render(8)
	if e1a.trace == "" || e1a.metrics == "" {
		t.Fatal("traced run produced an empty trace or metrics dump")
	}
	// tabS3's Quick window is too short to trigger GC, but it must show
	// request spans and cache-eviction events from both layers.
	if !strings.Contains(e1a.trace, `"name":"ssd.read"`) {
		t.Error("trace contains no device read spans; instrumentation lost")
	}
	if !strings.Contains(e1a.trace, `"name":"ftl.cache.evict"`) {
		t.Error("trace contains no FTL cache-eviction events; instrumentation lost")
	}
	if !strings.Contains(e1a.perfetto, `"traceEvents"`) {
		t.Error("Perfetto export missing traceEvents array")
	}
	if !strings.Contains(e1a.timeline, "cell,t_ns,") {
		t.Error("timeline export missing CSV header")
	}
	if strings.Count(e1a.timeline, "\n") < 2 {
		t.Error("timeline export has no sample rows")
	}
	if e1a != e1b {
		t.Error("two serial same-seed runs produced different observability exports")
	}
	if e8 != e1a {
		t.Error("8-worker observability exports differ from serial")
	}
	checkDigest(t, "tabS3.trace", e1a.trace)
	checkDigest(t, "tabS3.metrics", e1a.metrics)
	checkDigest(t, "tabS3.perfetto", e1a.perfetto)
	checkDigest(t, "tabS3.timeline", e1a.timeline)
}

// withShard runs f with the given drive-shard worker count installed,
// restoring the previous count afterwards.
func withShard(n int, f func()) {
	prev := shardWorkers()
	SetShard(n)
	defer SetShard(prev)
	f()
}

// The fleet's intra-cell drive-shard engine is held to the same contract as
// the cell pool: the serial pump and the sharded pump must render the same
// table and emit byte-identical trace JSONL, metrics, Perfetto, and timeline
// exports at every worker count. This is the acceptance artifact for the
// conservative-lookahead window protocol (internal/fleet, DESIGN.md §11).
func TestShardByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet regeneration")
	}
	type export struct{ table, trace, metrics, perfetto, timeline, telemetry string }
	render := func(workers int) export {
		col := obs.NewCollector()
		prev := observer()
		SetObserver(col)
		defer SetObserver(prev)
		ts := telemetry.NewSet(sim.Millisecond)
		prevTS := telemetrySet()
		SetTelemetry(ts)
		defer SetTelemetry(prevTS)
		var table string
		withShard(workers, func() { table = FleetTail(Quick, 42).Table() })
		var tb, mb, pb, lb, xb strings.Builder
		if err := col.WriteJSONL(&tb); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		if err := col.WritePerfetto(&pb); err != nil {
			t.Fatal(err)
		}
		if err := ts.WriteCSV(&lb); err != nil {
			t.Fatal(err)
		}
		if err := ts.WriteJSONL(&xb); err != nil {
			t.Fatal(err)
		}
		return export{table, tb.String(), mb.String(), pb.String(), lb.String(), xb.String()}
	}
	serial := render(1)
	if serial.table == "" || serial.trace == "" || serial.metrics == "" {
		t.Fatal("serial fleet run produced an empty table, trace, or metrics dump")
	}
	if strings.Count(serial.timeline, "\n") < 2 {
		t.Error("fleet timeline export has no sample rows")
	}
	if serial.telemetry == "" {
		t.Error("fleet telemetry export has no log-page rows")
	}
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != serial {
			t.Errorf("shard workers=%d: fleet output differs from the serial pump", workers)
		}
	}
}

// The telemetry log-page stream is the transparency interface itself — the
// contract the PR exists to uphold: sampled on aligned simulated-clock
// boundaries, its JSONL must be byte-identical at any worker count and with
// the preconditioning snapshot cache on or off (cold builds and cached
// restores must anchor the sampling window identically).
func TestTelemetryByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid regeneration")
	}
	render := func(workers int, cache bool) string {
		col := obs.NewCollector()
		prev := observer()
		SetObserver(col)
		defer SetObserver(prev)
		ts := telemetry.NewSet(sim.Millisecond)
		prevTS := telemetrySet()
		SetTelemetry(ts)
		defer SetTelemetry(prevTS)
		SetSnapshotCache(cache)
		defer SetSnapshotCache(true)
		withPool(&runner.Pool{Workers: workers}, func() { Fig3TailLatency(Quick, 42) })
		var b strings.Builder
		if err := ts.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1, true)
	if serial == "" {
		t.Fatal("telemetry-enabled fig3 run streamed no log pages")
	}
	if _, err := telemetry.Parse(strings.NewReader(serial)); err != nil {
		t.Fatalf("exported stream does not re-parse: %v", err)
	}
	if again := render(1, true); again != serial {
		t.Error("two serial same-seed runs streamed different telemetry")
	}
	if wide := render(8, true); wide != serial {
		t.Error("8-worker telemetry stream differs from serial")
	}
	if cold := render(1, false); cold != serial {
		t.Error("snapshot-cache-off telemetry stream differs from cached")
	}
	checkDigest(t, "fig3.telemetry", serial)
}

// Every runner-backed grid must also be insensitive to the worker count,
// not just the two acceptance artifacts; this covers the remaining grids
// at a coarser grain (their headline scalar).
func TestParallelHeadlinesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid regeneration")
	}
	grids := []struct {
		name   string
		metric func() float64
	}{
		{"fig1", func() float64 { lo, hi := Fig1Aging(Quick, 42).RatioRange(); return lo + hi }},
		{"fig2", func() float64 { return Fig2Compression(Quick, 42).WorstOverOptimal("high") }},
		{"fig4a", func() float64 { return Fig4aNandPageSize(Quick, 42).Converged() }},
		{"tabS3", func() float64 { return TabS3OpenChannel(Quick, 42).Improvement() }},
		{"tabS5", func() float64 {
			var mb float64
			for _, r := range TabS5Endurance(Quick, 42).Rows {
				mb += r.HostMBWritten
			}
			return mb
		}},
		{"tabS7", func() float64 { lo, hi := TabS7Personalities(Quick, 42).RatioRange(); return lo + hi }},
	}
	for _, g := range grids {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			var serial, wide float64
			withPool(nil, func() { serial = g.metric() })
			withPool(&runner.Pool{Workers: 8}, func() { wide = g.metric() })
			if serial != wide {
				t.Fatalf("%s: serial %v != parallel %v", g.name, serial, wide)
			}
		})
	}
}
