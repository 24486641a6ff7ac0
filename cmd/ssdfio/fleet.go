package main

import (
	"fmt"
	"os"
	"sync/atomic"

	"ssdtp/internal/cliutil"
	"ssdtp/internal/fleet"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
	"ssdtp/internal/telemetry"
	"ssdtp/internal/workload"
)

// maxFleetDrives bounds -fleet/-drives. The COW image substrate keeps a
// 1024-drive tier within the memory of a few fully copied drives (see README
// for the measured envelope); the cap guards against typos, not memory — the
// binding cost past it is host-pump scheduling, not residency.
const maxFleetDrives = 4096

// fleetMemLive is the tier residency snapshot served by /progress,
// atomically published from the simulation thread at safe points.
var fleetMemLive atomic.Pointer[fleet.MemReport]

// fleetOpts carries the flag values the fleet mode consumes.
type fleetOpts struct {
	drives   int
	tenants  int
	policy   string // stripe|hash
	stripeKB int64
	shard    int

	pattern    workload.Pattern
	size       int
	qd         int
	intervalUS int64
	readFrac   float64
	seed       int64
	ms         int64
	prefill    bool

	col                                                          *obs.Collector
	ts                                                           *telemetry.Set
	traceOut, perfettoOut, timelineOut, telemetryOut, metricsOut *cliutil.Out
	showSMART                                                    bool
}

// runFleet is ssdfio's -fleet mode: N identical-model drives behind a
// placement tier, shared by -tenants copies of the flag-configured workload
// (distinct seeds), reporting per-tenant tail percentiles and GC blast
// radius. The same co-simulation substrate as the fleet experiment, but with
// every knob on the command line.
func runFleet(cfg ssd.Config, o fleetOpts) {
	if o.tenants <= 0 {
		fmt.Fprintf(os.Stderr, "-tenants must be positive, got %d\n", o.tenants)
		os.Exit(2)
	}
	stripe := o.stripeKB * 1024
	var pl fleet.Placement
	switch o.policy {
	case "stripe":
		pl = fleet.StripeAll(o.drives)
	case "hash":
		group := o.drives / o.tenants
		if group < 1 {
			group = 1
		}
		pl = fleet.ConsistentHash(o.drives, group, o.seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown placement %q (want stripe|hash)\n", o.policy)
		os.Exit(2)
	}

	var tr *obs.Tracer
	label := fmt.Sprintf("fleet/%s/%dd", pl.Name(), o.drives)
	if o.col != nil {
		tr = o.col.Cell(label)
	}

	host := sim.NewEngine()
	devs := make([]*ssd.Device, o.drives)
	// The tier is homogeneous — one model, one FTL seed — so a prefilled
	// drive image is built ONCE and every drive restores it as a COW clone:
	// -prefill -drives 1024 pays one prefill plus O(chunks) pointer copies
	// per drive, and the tier's resident memory stays O(image + dirty sets).
	var (
		img       *ssd.DeviceState
		imgEvents int64
	)
	if o.prefill {
		// Build under a suspended throwaway tracer; its engine hook still
		// counts the prefill's fired events, credited to every clone below
		// so per-drive engine metrics match a from-scratch build.
		btr := obs.NewTracer("")
		btr.Suspend()
		b := cfg
		b.FTL.Seed = int64(runner.CellSeed(o.seed, 0))
		b.Trace = btr
		builder := ssd.NewDevice(sim.NewEngine(), b)
		fill := builder.Size() * 85 / 100 / 65536 * 65536
		workload.Run(builder, workload.Spec{
			Name: "prefill", Pattern: workload.Sequential, RequestBytes: 65536, Length: fill,
		}, workload.Options{MaxRequests: fill / 65536})
		// Snapshot requires a drained FTL: flush and run the builder's
		// engine until the flush callback fires.
		done := false
		if err := builder.FlushAsync(func() { done = true }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		builder.Engine().RunWhile(func() bool { return !done })
		img = builder.Snapshot()
		imgEvents = btr.EventsFired()
	}
	for i := range devs {
		c := cfg
		c.FTL.Seed = int64(runner.CellSeed(o.seed, 0))
		// Each drive gets a span-capped tracer: it buffers nothing but keeps
		// the latency-attribution profiler alive, which the fleet's
		// blast-radius accounting consumes per sub-request.
		dtr := obs.NewTracer(fmt.Sprintf("drive%03d", i))
		dtr.SetRecordCap(1)
		c.Trace = dtr
		dev := ssd.NewDevice(sim.NewEngine(), c)
		if img != nil {
			dev.Restore(img)
			dtr.AddEventsFired(imgEvents)
		}
		devs[i] = dev
	}
	f := fleet.New(host, devs, stripe)
	f.SetParallel(o.shard)
	if tr != nil {
		f.BindObs(tr)
		// Tier-level log-page stream, summed across drives on host-clock
		// boundaries (needs the bound tracer's engine hook).
		f.AttachTelemetry(o.ts.Cell(label))
	}

	groups := make([][]int, o.tenants)
	for t := range groups {
		groups[t] = pl.Group(t)
	}
	volBytes := fleetVolBytes(devs[0].Size(), groups, o.drives, stripe)
	vols := make([]*fleet.Volume, o.tenants)
	targets := make([]workload.Target, o.tenants)
	specs := make([]workload.Spec, o.tenants)
	for t := range vols {
		v, err := f.AddVolume(fmt.Sprintf("t%d", t), groups[t], volBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		vols[t] = v
		targets[t] = v
		specs[t] = workload.Spec{
			Name:         v.Name(),
			Pattern:      o.pattern,
			RequestBytes: o.size,
			QueueDepth:   o.qd,
			Interval:     sim.Time(o.intervalUS) * sim.Microsecond,
			ReadFrac:     o.readFrac,
			Seed:         runner.CellSeed(o.seed, uint64(1000+t)),
		}
	}

	// Publish residency for /progress before the run starts (the baseline:
	// clones sharing almost everything) and again after it finishes. Both
	// points read quiesced drives — never in-flight simulation state.
	pre := f.MemReport()
	fleetMemLive.Store(&pre)

	results := workload.RunMulti(targets, specs, workload.Options{
		Duration: sim.Time(o.ms) * sim.Millisecond,
	})

	mem := f.MemReport()
	fleetMemLive.Store(&mem)

	fmt.Printf("fleet: %d × %s, %d tenants, %s placement, %dKiB stripe, %d-byte volumes\n",
		o.drives, cfg.Name, o.tenants, pl.Name(), o.stripeKB, volBytes)
	tab := stats.NewTable("tenant", "drives", "shared", "requests", "MB/s",
		"p50(µs)", "p95(µs)", "p99(µs)", "p99.9(µs)", "gc tail share", "blast radius")
	for t, v := range vols {
		r := v.Report()
		tab.AddRow(r.Tenant, r.Drives, r.SharedDrives, r.Requests,
			fmt.Sprintf("%.1f", results[t].ThroughputMBps()),
			r.P50/sim.Microsecond, r.P95/sim.Microsecond,
			r.P99/sim.Microsecond, r.P999/sim.Microsecond,
			fmt.Sprintf("%.2f%%", float64(r.TailGCSharePPM)/10000),
			fmt.Sprintf("%.2f%%", float64(r.BlastPPM)/10000))
	}
	fmt.Print(tab.String())
	fmt.Println(mem)

	if o.showSMART {
		for i, dev := range devs {
			fmt.Printf("--- drive%03d ---\n%s", i, dev.SMART().String())
		}
	}

	if tr != nil {
		f.PublishMetrics(tr)
		o.col.MarkDone(label)
		o.ts.MarkDone(label)
		writeObsFile(o.traceOut, func(w *os.File) error { return tr.WriteJSONL(w) })
		writeObsFile(o.perfettoOut, func(w *os.File) error { return tr.WritePerfetto(w) })
		writeObsFile(o.timelineOut, func(w *os.File) error { return o.ts.WriteCSV(w) })
		writeObsFile(o.telemetryOut, func(w *os.File) error { return o.ts.WriteJSONL(w) })
		writeObsFile(o.metricsOut, func(w *os.File) error { return tr.WriteMetrics(w) })
	}
}

// fleetVolBytes sizes every tenant volume so each drive fits all the tenants
// placed on it: the binding drive is the most-loaded one, which can devote at
// most size/load (less one stripe of slack) to each of its tenants.
func fleetVolBytes(driveSize int64, groups [][]int, drives int, stripe int64) int64 {
	loads := make([]int64, drives)
	for _, g := range groups {
		for _, d := range g {
			loads[d]++
		}
	}
	g := int64(len(groups[0]))
	best := int64(1) << 62
	for _, l := range loads {
		if l == 0 {
			continue
		}
		if b := g * (driveSize/l - stripe); b < best {
			best = b
		}
	}
	if best < stripe {
		return stripe
	}
	return best / stripe * stripe
}

// writeObsFile delivers one observability export into its startup-opened
// destination, or does nothing when the flag was not given. Errors arrive
// already wrapped with the owning flag and path.
func writeObsFile(o *cliutil.Out, write func(f *os.File) error) {
	if !o.Enabled() {
		return
	}
	if err := o.Finish(write); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(wrote %s)\n", o.Path())
}
