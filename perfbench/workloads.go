package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"

	"ssdtp/internal/fleet"
	"ssdtp/internal/ftl"
	"ssdtp/internal/hostif"
	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
	"ssdtp/internal/telemetry"
	"ssdtp/internal/workload"
)

// params fixes the size of one repetition of every workload. The request
// counts are fixed (not time-bounded) so that every repetition of a seed
// simulates exactly the same thing and its fingerprint can be compared.
type params struct {
	Seed int64 `json:"seed"`

	Fig3WritesPerDesign int64 `json:"fig3_writes_per_design"`

	MixReads  int64 `json:"mix_reads"`
	MixWrites int64 `json:"mix_writes"`

	FleetDrives     int   `json:"fleet_drives"`
	FleetTenants    int   `json:"fleet_tenants"`
	FleetGroup      int   `json:"fleet_group"`
	FleetReqsTenant int64 `json:"fleet_requests_per_tenant"`
	// Shard is the fleet pump's worker count; 0 means GOMAXPROCS.
	Shard int `json:"-"`
}

// fullParams are the sizes the benchmark measures with: each repetition
// takes roughly one second of host time on a 2-CPU host, so a 10 s run
// holds enough repetitions for a steady median.
func fullParams(seed int64) params {
	return params{
		Seed:                seed,
		Fig3WritesPerDesign: 60_000,
		MixReads:            240_000,
		MixWrites:           60_000,
		FleetDrives:         64,
		FleetTenants:        4,
		FleetGroup:          16,
		FleetReqsTenant:     20_000,
	}
}

// smokeParams are tiny sizes for the benchmark's own tests.
func smokeParams(seed int64) params {
	p := fullParams(seed)
	p.Fig3WritesPerDesign = 2_000
	p.MixReads, p.MixWrites = 2_000, 500
	p.FleetDrives, p.FleetGroup, p.FleetReqsTenant = 8, 2, 300
	return p
}

// workloadDef is one benchmark workload: run performs one cold repetition
// (set-up, then the measured phase) and fills the probe. BENCHMARK.json and
// README.md give the reason for each.
type workloadDef struct {
	name string
	run  func(p params, pr *probe)
	// sharded marks a workload whose fleet pump runs on GOMAXPROCS workers.
	sharded bool
}

var workloads = []workloadDef{
	{name: "fig3-randwrite", run: runFig3},
	{name: "mq-readmix", run: runReadMix},
	// Its runs also check a serial-pump repetition against the others.
	{name: "fleet-hash", run: runFleet, sharded: true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// prefill drives the fig3-family cold preconditioning of
// internal/experiments/precond.go: an 85% sequential fill, a sequential
// overwrite of its first half, then a flush. Every wait is checked: a
// prefill that leaves requests or the flush outstanding is an error, not an
// image to snapshot.
func prefill(dev *ssd.Device) {
	const req = 64 * 1024
	fill := dev.Size() * 85 / 100 / req * req
	for _, n := range []int64{fill / req, fill / 2 / req} {
		res := workload.Run(dev, workload.Spec{
			Name: "prefill", Pattern: workload.Sequential, RequestBytes: req, Length: n * req,
		}, workload.Options{MaxRequests: n})
		if res.Requests != n {
			panic(fmt.Sprintf("prefill %s: %d of %d requests completed", dev.Name(), res.Requests, n))
		}
	}
	flushAndWait(dev)
}

// flushAndWait flushes dev and runs its engine until the flush completes.
func flushAndWait(dev *ssd.Device) {
	done := false
	if err := dev.FlushAsync(func() { done = true }); err != nil {
		panic(fmt.Sprintf("flush %s: %v", dev.Name(), err))
	}
	if dev.Engine().RunWhile(func() bool { return !done }) {
		panic(fmt.Sprintf("flush %s: engine drained with the flush outstanding", dev.Name()))
	}
}

// coldClone builds cfg cold — construct, prefill, snapshot — and restores
// the image onto a fresh device on its own engine, the path the experiments'
// preconditioning takes. tr, when non-nil, is bound to the clone only, so
// it sees the measured phase and none of the prefill.
func coldClone(cfg ssd.Config, tr *obs.Tracer, pr *probe) *ssd.Device {
	img := coldImage(cfg, pr)
	var dev *ssd.Device
	pr.span("span.clone_s", func() {
		cfg.Trace = tr
		dev = ssd.NewDevice(sim.NewEngine(), cfg)
		dev.Restore(img)
	})
	return dev
}

// coldImage constructs and prefills a device for cfg and snapshots it.
func coldImage(cfg ssd.Config, pr *probe) *ssd.DeviceState {
	var b *ssd.Device
	pr.span("span.prefill_s", func() {
		b = ssd.NewDevice(sim.NewEngine(), cfg)
		prefill(b)
	})
	var img *ssd.DeviceState
	pr.span("span.snapshot_s", func() { img = b.Snapshot() })
	return img
}

// driveTracer returns a tracer that buffers no span records but keeps the
// latency-attribution profiler and the engine event counter alive.
func driveTracer(label string) *obs.Tracer {
	tr := obs.NewTracer(label)
	tr.SetRecordCap(1)
	return tr
}

// measured is one device's measured-phase bookkeeping: FTL counters, fired
// engine events, the clock and the log page at its start and at its end.
// Each log page is also streamed to rec (nil when the workload streams its
// own telemetry).
type measured struct {
	dev    *ssd.Device
	tr     *obs.Tracer
	rec    *telemetry.Recorder
	clock  func() sim.Time
	c      [2]ftl.Counters
	events [2]int64
	t      [2]sim.Time
	pages  [2]telemetry.Page
	res    workload.Result
	label  string
}

func startMeasured(dev *ssd.Device, tr *obs.Tracer, clock func() sim.Time, rec *telemetry.Recorder, label string) *measured {
	m := &measured{dev: dev, tr: tr, rec: rec, clock: clock, label: label}
	m.rec.SetSource(dev.FillLogPage)
	m.sample(0)
	return m
}

func (m *measured) stop() { m.sample(1) }

func (m *measured) sample(i int) {
	m.c[i], m.events[i], m.t[i] = m.dev.FTL().Counters(), m.tr.EventsFired(), m.clock()
	m.dev.FillLogPage(&m.pages[i])
	m.rec.Observe(m.t[i])
}

// addDelta adds to - from, field by field, into sum.
func addDelta(sum *ftl.Counters, from, to ftl.Counters) {
	vs, vf, vt := reflect.ValueOf(sum).Elem(), reflect.ValueOf(from), reflect.ValueOf(to)
	for i := 0; i < vs.NumField(); i++ {
		vs.Field(i).SetInt(vs.Field(i).Int() + vt.Field(i).Int() - vf.Field(i).Int())
	}
}

// simTotals folds the measured-phase deltas of a workload's devices into the
// per-layer simulated metrics shared by all workloads.
func simTotals(ms []*measured, lat *stats.LatencyRecorder, requests int64, pr *probe) {
	var c ftl.Counters
	var events int64
	var busy, wait, chanTime float64
	var simDur sim.Time
	var phases [obs.NumPhases]sim.Time
	var tailGC float64
	for _, m := range ms {
		addDelta(&c, m.c[0], m.c[1])
		events += m.events[1] - m.events[0]
		busy += float64(m.pages[1].BusBusyNS - m.pages[0].BusBusyNS)
		wait += float64(m.pages[1].BusWaitNS - m.pages[0].BusWaitNS)
		chanTime += float64(m.pages[1].Channels) * float64(m.t[1]-m.t[0])
		simDur += m.t[1] - m.t[0]
		prof := m.tr.Prof()
		for ph := range phases {
			phases[ph] += prof.PhaseTotal(obs.Phase(ph))
		}
		shares, _ := prof.TailShares(0.01)
		tailGC += float64(shares[obs.PhaseGCStall]) / 1e6 / float64(len(ms))
	}
	pr.fingerprint("ftl %+v", c)
	pr.sim["ftl.host_pages"] = float64(c.DataPagesProgrammed)
	pr.sim["ftl.gc_pages"] = float64(c.GCPagesProgrammed)
	pr.sim["ftl.waf"] = ratio(float64(c.PagesProgrammed()), float64(c.DataPagesProgrammed))
	pr.sim["ftl.gc_runs"] = float64(c.GCRuns)
	pr.sim["ftl.erases"] = float64(c.Erases)
	pr.sim["ftl.cache_hits"] = float64(c.CacheHits)
	pr.sim["ftl.cache_read_hits"] = float64(c.CacheReadHits)
	pr.sim["ftl.map_pages"] = float64(c.MapPagesProgrammed)
	pr.sim["ftl.parity_pages"] = float64(c.ParityPagesProgrammed)
	pr.sim["ftl.page_reads"] = float64(c.PageReads)
	pr.sim["ftl.gc_page_reads"] = float64(c.GCPageReads)
	pr.sim["onfi.bus_busy_frac"] = ratio(busy, chanTime)
	pr.sim["onfi.bus_wait_us_per_req"] = ratio(wait/1e3, float64(requests))
	pr.sim["workload.requests"] = float64(requests)
	pr.sim["workload.sim_ms"] = float64(simDur) / float64(sim.Millisecond)
	pr.sim["workload.sim_p50_us"] = us(lat.Percentile(50))
	pr.sim["workload.sim_p99_us"] = us(lat.Percentile(99))
	pr.fingerprint("requests %d p50 %d p99 %d max %d", requests,
		lat.Percentile(50), lat.Percentile(99), lat.Max())
	pr.events = events

	var total sim.Time
	for _, t := range phases {
		total += t
	}
	for ph, t := range phases {
		pr.sim["attr."+obs.Phase(ph).String()+"_share"] = ratio(float64(t), float64(total))
	}
	pr.sim["attr.p99_gc_stall_share"] = tailGC
}

// memTotals records the copy-on-write residency of devs: chunks copied on
// first write, privately owned bytes, and the sealed image bytes they share,
// counted once per chunk (the accounting of fleet.MemReport).
func memTotals(devs []*ssd.Device, pr *probe) {
	var copies, private, image int64
	seen := map[any]bool{}
	for _, d := range devs {
		st := d.MemStats()
		copies += st.CowCopies
		private += st.OwnedBytes
		d.VisitSharedChunks(func(id any, bytes int64) {
			if !seen[id] {
				seen[id] = true
				image += bytes
			}
		})
	}
	setMem(copies, private, image, pr)
}

func setMem(copies, private, image int64, pr *probe) {
	pr.fingerprint("cow copies %d private %d image %d", copies, private, image)
	pr.sim["cow.cow_copies"] = float64(copies)
	pr.sim["cow.private_mb"] = mb(private)
	pr.sim["cow.image_mb"] = mb(image)
	pr.sim["cow.resident_mb"] = mb(private + image)
}

// encodeTelemetry renders the log-page stream as JSONL and fingerprints it.
func encodeTelemetry(ts *telemetry.Set, pr *probe) {
	var b strings.Builder
	var err error
	pr.span("span.telemetry_encode_s", func() { err = ts.WriteJSONL(&b) })
	if err != nil {
		panic(fmt.Sprintf("telemetry encode: %v", err))
	}
	pages := strings.Count(b.String(), "\n")
	pr.fingerprint("telemetry %d pages %d bytes fnv %s", pages, b.Len(), fpHash(b.String()))
	pr.sim["telemetry.pages"] = float64(pages)
	pr.sim["telemetry.jsonl_bytes"] = float64(b.Len())
}

// fig3Designs are the four FTL designs of the paper's Figure 3: the MQSim
// baseline and three one-knob variants.
var fig3Designs = []struct {
	name   string
	mutate func(*ssd.Config)
}{
	{"baseline", func(*ssd.Config) {}},
	{"rand-greedy-gc", func(c *ssd.Config) { c.FTL.GC, c.FTL.GCSample = ftl.GCRandGreedy, 2 }},
	{"mapping-cache", func(c *ssd.Config) { c.FTL.Cache = ftl.CacheMapping }},
	{"pdwc-alloc", func(c *ssd.Config) { c.FTL.Alloc = ftl.AllocPDWC }},
}

// runFig3 builds the four designs cold, then drives each with the same
// uniform-random 4 KiB writes at QD 8, one design after another.
func runFig3(p params, pr *probe) {
	devs := make([]*ssd.Device, len(fig3Designs))
	trs := make([]*obs.Tracer, len(fig3Designs))
	for i, d := range fig3Designs {
		cfg := ssd.MQSimBase()
		cfg.FTL.Seed = p.Seed
		d.mutate(&cfg)
		if pr.traced {
			trs[i] = driveTracer(d.name)
		}
		devs[i] = coldClone(cfg, trs[i], pr)
	}
	ts := telemetry.NewSet(sim.Millisecond)
	ms := make([]*measured, len(devs))
	all := stats.NewLatencyRecorder()
	var requests int64

	pr.beginMeasure()
	for i, dev := range devs {
		ms[i] = startMeasured(dev, trs[i], dev.Engine().Now, ts.Cell(fig3Designs[i].name), fig3Designs[i].name)
		res := workload.Run(dev, workload.Spec{
			Name: fig3Designs[i].name, Pattern: workload.Uniform, RequestBytes: 4096,
			QueueDepth: 8, Seed: p.Seed,
		}, workload.Options{MaxRequests: p.Fig3WritesPerDesign})
		ms[i].stop()
		pr.issue(p.Fig3WritesPerDesign, res.Requests)
		requests += res.Requests
		ms[i].res = res
	}
	pr.endMeasure(requests)

	pr.span("span.report_s", func() {
		for _, m := range ms {
			lat := m.res.Latency
			for _, v := range lat.Snapshot() {
				all.Record(v)
			}
			pr.fingerprint("%s: n %d mean %.0f p50 %d p99 %d max %d", m.label, lat.Count(),
				lat.Mean(), lat.Percentile(50), lat.Percentile(99), lat.Max())
		}
		simTotals(ms, all, requests, pr)
		memTotals(devs, pr)
	})
	encodeTelemetry(ts, pr)
	pr.keep(devs)
}

// runReadMix drives one cold MX500 through two hostif submission queues
// under 4:1 weighted round-robin onto 8 device slots: a whole-drive 4 KiB
// random reader with 16 outstanding, and a 4 KiB writer with 4 outstanding on
// a 4 MiB hot region the write cache absorbs. Both are closed loops with
// fixed request counts.
func runReadMix(p params, pr *probe) {
	cfg := ssd.MX500()
	cfg.FTL.Seed = p.Seed
	var tr *obs.Tracer
	if pr.traced {
		tr = driveTracer("mx500")
	}
	dev := coldClone(cfg, tr, pr)
	// Eight device slots against twenty outstanding requests: commands wait
	// in the submission queues, so weighted arbitration decides every issue.
	ctl := hostif.NewController(dev, hostif.Config{Arbitration: hostif.Weighted, MaxOutstanding: 8})

	// The hot region sits at a fixed place, the start of the drive: where it
	// lands against the prefill's overwritten half moves the drive's work
	// per request, and the seed should vary the requests, not the workload.
	const hot = 4 << 20
	clients := []*mixClient{
		{name: "read", kind: hostif.OpRead, depth: 16, weight: 4, budget: p.MixReads,
			slots: dev.Size() / mixReq, rng: rand.New(rand.NewSource(runner.CellSeed(p.Seed, 1)))},
		{name: "write", kind: hostif.OpWrite, depth: 4, weight: 1, budget: p.MixWrites,
			slots: hot / mixReq, rng: rand.New(rand.NewSource(runner.CellSeed(p.Seed, 2)))},
	}
	ts := telemetry.NewSet(sim.Millisecond)

	pr.beginMeasure()
	m := startMeasured(dev, tr, dev.Engine().Now, ts.Cell("mx500"), "mx500")
	for _, c := range clients {
		c.start(ctl)
	}
	stalled := dev.Engine().RunWhile(func() bool {
		return clients[0].inflight+clients[1].inflight > 0
	})
	m.stop()
	var requests int64
	for _, c := range clients {
		pr.issue(c.issued, c.q.Completed)
		requests += c.q.Completed
	}
	pr.endMeasure(requests)
	if stalled {
		panic("mq-readmix: engine drained with requests outstanding")
	}

	pr.span("span.report_s", func() {
		all := stats.NewLatencyRecorder()
		for _, c := range clients {
			for _, v := range c.q.Latency.Snapshot() {
				all.Record(v)
			}
			lat := c.q.Latency
			pr.fingerprint("%s: n %d refused %d mean %.0f p50 %d p99 %d max %d", c.name,
				lat.Count(), c.refused, lat.Mean(), lat.Percentile(50), lat.Percentile(99), lat.Max())
			pr.sim["hostif."+c.name+"_p99_us"] = us(lat.Percentile(99))
		}
		simTotals([]*measured{m}, all, requests, pr)
		memTotals([]*ssd.Device{dev}, pr)
	})
	encodeTelemetry(ts, pr)
	pr.keep(dev)
}

// mixReq is the request size of both mq-readmix clients.
const mixReq = 4096

// mixClient is one closed-loop submitter on a hostif queue: every
// completion submits the next request until the budget is spent. Its
// completion callback is built once, so the loop allocates nothing per
// request.
type mixClient struct {
	name          string
	kind          hostif.OpKind
	depth, weight int
	budget        int64
	slots         int64 // requests fit in the client's region, which starts at 0
	rng           *rand.Rand

	ctl      *hostif.Controller
	q        *hostif.Queue
	done     func(sim.Time)
	issued   int64
	refused  int64
	inflight int
}

func (c *mixClient) start(ctl *hostif.Controller) {
	c.ctl = ctl
	c.q = ctl.CreateQueue(c.depth, c.weight)
	c.done = func(sim.Time) {
		c.inflight--
		c.submit()
	}
	for i := 0; i < c.depth; i++ {
		c.submit()
	}
}

func (c *mixClient) submit() {
	if c.issued >= c.budget {
		return
	}
	c.issued++
	off := c.rng.Int63n(c.slots) * mixReq
	if err := c.ctl.Submit(c.q, hostif.Request{Kind: c.kind, Off: off, Len: mixReq, Done: c.done}); err != nil {
		c.refused++
		return
	}
	c.inflight++
}

// fleetPlacementSeed fixes the hash ring. The ring is the tier's
// configuration, not its input: with a seeded ring, how many drives the
// tenants share — and with it the work per request, the allocations and the
// heap — would change from seed to seed, and seeds would stop being
// comparable samples of one workload.
const fleetPlacementSeed = 1

// runFleet restores every drive of a consistent-hash tier as a COW clone of
// one cold-built image and runs four QD-8 16 KiB uniform writers, one per
// tenant volume, with the tier log page sampled every simulated millisecond.
func runFleet(p params, pr *probe) {
	cfg := ssd.MQSimBase()
	cfg.FTL.Seed = runner.CellSeed(p.Seed, 0)
	img := coldImage(cfg, pr)

	devs := make([]*ssd.Device, p.FleetDrives)
	trs := make([]*obs.Tracer, p.FleetDrives)
	host := sim.NewEngine()
	ftr := driveTracer("fleet")
	ts := telemetry.NewSet(sim.Millisecond)
	var f *fleet.Fleet
	var vols []*fleet.Volume
	pr.span("span.clone_s", func() {
		for i := range devs {
			c := cfg
			trs[i] = driveTracer(fmt.Sprintf("drive%03d", i))
			c.Trace = trs[i]
			devs[i] = ssd.NewDevice(sim.NewEngine(), c)
			devs[i].Restore(img)
		}
		f = fleet.New(host, devs, 256<<10)
		shard := p.Shard
		if shard == 0 {
			shard = runtime.GOMAXPROCS(0)
		}
		f.SetParallel(shard)
		f.BindObs(ftr)
		f.AttachTelemetry(ts.Cell("fleet"))
		pl := fleet.ConsistentHash(p.FleetDrives, p.FleetGroup, fleetPlacementSeed)
		groups := make([][]int, p.FleetTenants)
		for t := range groups {
			groups[t] = pl.Group(t)
		}
		size := volumeBytes(devs[0].Size(), groups, p.FleetDrives, 256<<10)
		for t := range groups {
			v, err := f.AddVolume(fmt.Sprintf("t%d", t), groups[t], size)
			if err != nil {
				panic(err)
			}
			vols = append(vols, v)
		}
	})
	targets := make([]workload.Target, len(vols))
	specs := make([]workload.Spec, len(vols))
	for t, v := range vols {
		targets[t] = v
		specs[t] = workload.Spec{
			Name: v.Name(), Pattern: workload.Uniform, RequestBytes: 16 << 10,
			QueueDepth: 8, Seed: runner.CellSeed(p.Seed, uint64(1000+t)),
		}
	}
	ms := make([]*measured, len(devs))
	ev0 := ftr.EventsFired()
	t0 := host.Now()

	for i, dev := range devs {
		ms[i] = startMeasured(dev, trs[i], host.Now, nil, "")
	}
	pr.beginMeasure()
	results := workload.RunMulti(targets, specs, workload.Options{MaxRequests: p.FleetReqsTenant})
	var requests int64
	for _, r := range results {
		pr.issue(p.FleetReqsTenant, r.Requests)
		requests += r.Requests
	}
	pr.endMeasure(requests)
	for _, m := range ms {
		m.stop()
	}

	pr.span("span.report_s", func() {
		all := stats.NewLatencyRecorder()
		var blastMax, tailMax, tailSum int64
		for t, v := range vols {
			r := v.Report()
			pr.fingerprint("%+v", r)
			if r.Requests != results[t].Requests {
				panic(fmt.Sprintf("fleet: tenant %s reports %d requests, workload completed %d",
					r.Tenant, r.Requests, results[t].Requests))
			}
			for _, x := range results[t].Latency.Snapshot() {
				all.Record(x)
			}
			blastMax = max(blastMax, r.BlastPPM)
			tailMax = max(tailMax, r.TailGCSharePPM)
			tailSum += r.TailGCSharePPM
		}
		for _, tt := range f.TenantTelemetry() {
			pr.fingerprint("%+v", tt)
		}
		simTotals(ms, all, requests, pr)
		pr.events += ftr.EventsFired() - ev0
		pr.sim["workload.sim_ms"] = float64(host.Now()-t0) / float64(sim.Millisecond)
		// The fleet hands drive rows to the tenants, so its tail share is
		// the tenants' mean rather than the drives'.
		pr.sim["attr.p99_gc_stall_share"] = float64(tailSum) / float64(len(vols)) / 1e6
		pr.sim["fleet.shared_drives"] = float64(f.SharedDrives())
		pr.sim["fleet.blast_ppm_max"] = float64(blastMax)
		pr.sim["fleet.tail_gc_share_ppm"] = float64(tailMax)
		mem := f.MemReport()
		pr.fingerprint("shared %d %+v", f.SharedDrives(), mem)
		setMem(mem.CowCopies, mem.PrivateBytes, mem.ImageBytes, pr)
	})
	encodeTelemetry(ts, pr)
	pr.keep(f, devs)
}

// volumeBytes sizes every tenant volume so each drive holds all the tenants
// placed on it, as ssdfio -fleet does: the most-loaded drive can give each
// of its tenants at most size/load, less one stripe of slack.
func volumeBytes(driveSize int64, groups [][]int, drives int, stripe int64) int64 {
	loads := make([]int64, drives)
	for _, g := range groups {
		for _, d := range g {
			loads[d]++
		}
	}
	g := int64(len(groups[0]))
	best := int64(1) << 62
	for _, l := range loads {
		if l > 0 {
			best = min(best, g*(driveSize/l-stripe))
		}
	}
	return max(best/stripe*stripe, stripe)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

func mb(b int64) float64 { return float64(b) / (1 << 20) }
