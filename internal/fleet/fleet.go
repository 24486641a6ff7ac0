// Package fleet simulates a host-side storage tier: hundreds to thousands of
// ssd.Device instances (heterogeneous models, ages and fill levels, cloned
// cheaply from preconditioned snapshots) behind a striping/placement layer,
// serving multiple tenants. It turns the paper's per-drive transparency
// argument into the fleet problem operators actually have: garbage collection
// on a drive one tenant fills blows the p99 of every other tenant striped
// over it. See DESIGN.md §10.
//
// # Co-simulation
//
// Restored drive clones carry their preconditioning clock and trailing GC
// events, and sim.Engine.Rebase forbids moving an engine with pending events —
// so every drive keeps its own engine, offset from fleet time by a fixed
// per-drive base (its clock at attach). The fleet owns one host engine, which
// tenant workloads (workload.RunMulti) drive as usual; a single "pump" event
// on the host engine is always armed at the earliest pending drive event's
// fleet time. When it fires, due drive events are stepped in (fleet time,
// drive index) order; when a volume submits I/O, the target drive's clock is
// first advanced to fleet-now. New drive events are always scheduled at or
// after the drive's current clock, so no drive event can become due before
// the armed pump — the interleaving is total, deterministic, and independent
// of host-side worker counts. The drives are shards of a sim.ShardGroup,
// whose calendar finds the earliest drive event in O(log drives); every path
// here that changes a drive outside the group (sync, submission, flush)
// re-keys it with Touch.
//
// # Parallel prefetch
//
// With SetParallel, the pump additionally opens conservative-lookahead
// windows (DESIGN.md §11): each drive's busy predicate is
// ssd.Device.CompletionFloor, so the group horizon — also capped by the host
// engine's next event and the cell tracer's next window boundary (the
// log-page sampling grid) — bounds when any drive can next call back into
// host state.
// Everything strictly before the horizon is drive-internal and fires
// concurrently across worker goroutines; the instants those batches fired at
// come back from AdvanceBefore, and the pump re-arms through them as "ghost"
// pumps so the host engine sees the exact event stream (count, times,
// sequence numbers, hook calls) the serial pump would have produced. Output
// therefore stays byte-identical at any worker count.
//
// # Attribution
//
// Each drive's latency-attribution profiler (obs.Profiler) gets a row sink,
// so every completed sub-request's exact phase decomposition is observed at
// completion — no per-request state is retained on the drives. The volume
// charges the row's gc_stall time to the issuing tenant, split by whether the
// drive is shared with other tenants; the per-tenant tail of those charges is
// the GC blast radius.
package fleet

import (
	"fmt"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
)

// drive is one device in the tier plus its co-simulation and placement state.
type drive struct {
	dev  *ssd.Device
	eng  *sim.Engine
	base sim.Time // drive-local clock minus fleet clock, fixed at attach
	idx  int      // drive (and shard) index

	tenants int   // volumes with at least one extent here
	cursor  int64 // next unallocated drive-local byte

	// lastRow/hasRow form the one-slot row hand-off from the drive profiler's
	// sink to the volume's sub-request completion: ReqAttr.End runs the sink
	// and then, synchronously, the completion callback, so the slot always
	// holds exactly the completing request's row when the callback reads it.
	lastRow obs.AttrRow
	hasRow  bool
}

// takeRow consumes the row hand-off slot.
func (d *drive) takeRow() (obs.AttrRow, bool) {
	if !d.hasRow {
		return obs.AttrRow{}, false
	}
	d.hasRow = false
	return d.lastRow, true
}

// Fleet is the drive tier. Construct with New, carve tenant volumes with
// AddVolume, then drive the host engine (workload generators do) — the fleet
// keeps every drive's simulation interleaved with the host clock.
type Fleet struct {
	eng    *sim.Engine
	drives []*drive
	stripe int64
	sector int
	pump   sim.Event
	pumpFn func() // pumpFire, bound once
	vols   []*Volume
	tr     *obs.Tracer // cell tracer from BindObs; carries tenant-request spans

	// Freelists of in-flight request descriptors, so the steady-state
	// request path allocates nothing.
	freeReq *volReq
	freeSub *volSub

	// group shards the drive engines for conservative-lookahead prefetch;
	// parallel gates it (SetParallel). ghosts are the fleet times of batches
	// a window already fired, still owed one pump firing each so the host
	// engine's event stream matches the serial pump's exactly. prefetching
	// is the in-window assertion flag: a host-visible completion while it is
	// set means a drive violated its completion floor.
	group       *sim.ShardGroup
	parallel    bool
	ghosts      []sim.Time
	prefetching bool
	// prefetchedBatches counts event batches fired inside windows — coverage
	// telemetry for tests; never exported (it would differ from serial runs).
	prefetchedBatches int64
}

// New assembles a tier over devs on the host engine eng. Each device must be
// on its own engine (not eng) with no host I/O outstanding; stripeBytes is
// the placement extent size, a positive multiple of the common sector size.
func New(eng *sim.Engine, devs []*ssd.Device, stripeBytes int64) *Fleet {
	if len(devs) == 0 {
		panic("fleet: New with no drives")
	}
	f := &Fleet{eng: eng, stripe: stripeBytes, sector: devs[0].SectorSize()}
	f.pumpFn = f.pumpFire
	if stripeBytes <= 0 || stripeBytes%int64(f.sector) != 0 {
		panic(fmt.Sprintf("fleet: stripe %d not a positive multiple of sector %d", stripeBytes, f.sector))
	}
	f.drives = make([]*drive, len(devs))
	f.group = sim.NewShardGroup(1)
	for i, dev := range devs {
		if dev.Engine() == eng {
			panic("fleet: drives must not share the host engine")
		}
		if dev.SectorSize() != f.sector {
			panic(fmt.Sprintf("fleet: drive %d sector %d != fleet sector %d", i, dev.SectorSize(), f.sector))
		}
		d := &drive{dev: dev, eng: dev.Engine(), base: dev.Engine().Now() - eng.Now(), idx: i}
		if prof := dev.Tracer().Prof(); prof != nil {
			prof.SetRowSink(func(r obs.AttrRow) {
				d.lastRow = r
				d.hasRow = true
			})
		}
		dev.TrackCompletions()
		f.group.Attach(d.eng, d.base, dev.CompletionFloor)
		f.drives[i] = d
	}
	f.armPump()
	return f
}

// SetParallel turns conservative-lookahead prefetch on with the given worker
// count, or off again with workers <= 1 (the default). Output is byte-
// identical at every setting; parallelism only changes wall-clock time.
func (f *Fleet) SetParallel(workers int) {
	f.parallel = workers > 1
	if f.parallel {
		f.group.SetWorkers(workers)
	}
}

// Engine returns the host engine.
func (f *Fleet) Engine() *sim.Engine { return f.eng }

// Drives returns the tier size.
func (f *Fleet) Drives() int { return len(f.drives) }

// SharedDrives returns how many drives back more than one volume.
func (f *Fleet) SharedDrives() int {
	n := 0
	for _, d := range f.drives {
		if d.tenants > 1 {
			n++
		}
	}
	return n
}

// syncDrive advances a drive's local clock to fleet-now, firing any of its
// events due at or before it, so a submission lands on an up-to-date drive.
func (f *Fleet) syncDrive(d *drive) {
	d.eng.RunUntil(d.base + f.eng.Now())
	f.group.Touch(d.idx)
}

// armPump (re)schedules the pump at the earliest pending drive event — or,
// when a prefetch window left ghost instants to replay, at the next ghost
// (always earlier than every remaining drive event). The invariant — no
// drive event is due before the armed pump — holds because drives only gain
// events while being stepped or synced at fleet-now, so every new event's
// fleet time is >= now. A drive event due before now means some path changed
// a drive without re-keying it in the calendar; that is a bug, and stepping
// on would silently reorder events, so it panics.
func (f *Fleet) armPump() {
	di, next, ok := f.group.Next()
	if len(f.ghosts) > 0 {
		di, next, ok = -1, f.ghosts[0], true
	}
	if f.pump.Pending() {
		if ok && f.pump.Time() == next {
			return
		}
		f.pump.Cancel()
	}
	if !ok {
		return
	}
	if now := f.eng.Now(); next < now {
		if di < 0 {
			panic(fmt.Sprintf("fleet: window ghost at fleet time %d, before now=%d", next, now))
		}
		panic(fmt.Sprintf("fleet: stale shard calendar: drive %d next event at fleet time %d, before now=%d",
			di, next, now))
	}
	f.pump = f.eng.At(next, f.pumpFn)
}

// pumpFire steps every due drive event in (fleet time, drive index) order —
// sim.ShardGroup's total order over the drive shards — then, in parallel
// mode with no ghosts left to replay, opens the next prefetch window before
// re-arming. Completion callbacks fired here run tenant logic (latency
// recording, follow-on submissions) at the correct host-clock instant. At a
// ghost instant the due-event step is a no-op (the window already fired that
// batch); the firing itself keeps the host engine's event stream identical
// to the serial pump's.
func (f *Fleet) pumpFire() {
	now := f.eng.Now()
	if len(f.ghosts) > 0 && f.ghosts[0] == now {
		f.ghosts = f.ghosts[1:]
	}
	f.group.RunUntil(now)
	if f.parallel && len(f.ghosts) == 0 {
		f.prefetch()
	}
	f.armPump()
}

// prefetch opens one conservative-lookahead window: every drive event
// strictly before the horizon is internal to its drive, so the group fires
// them concurrently. The horizon is the minimum of the host engine's next
// event (no submission may land on a drive that has run ahead of it) and
// every busy drive's completion floor (no host-visible completion may fire
// inside the window), further capped by the cell tracer's next window
// boundary (a log-page row samples current drive state at the first host
// event past it, so no drive may run ahead of an unsampled boundary).
//
// With neither a host event pending nor a request outstanding anywhere, the
// window stays shut: the host run loop can only decide to stop at such a
// point (workload generators signal done when their last request drains),
// and events fired beyond its last instant would diverge from the serial
// run's final drive state. The window cap deliberately cannot open a
// window on its own — it only tightens one justified by the host queue or a
// floor.
func (f *Fleet) prefetch() {
	limit, bounded := f.eng.NextEventTime()
	h, ok := f.group.Horizon(limit, bounded)
	if !ok {
		return
	}
	if tb, tok := f.tr.NextWindowBoundary(); tok && tb < h {
		h = tb
	}
	f.prefetching = true
	f.ghosts = f.group.AdvanceBefore(h, true)
	f.prefetching = false
	f.prefetchedBatches += int64(len(f.ghosts))
}

// volRow is one tenant request's blast-radius accounting: end-to-end latency
// plus the gc_stall time its sub-requests were charged, split by whether the
// drive is shared with other tenants.
type volRow struct {
	total    sim.Time
	gc       sim.Time
	gcShared sim.Time
}

// DefaultRowCap bounds retained per-request rows per volume; beyond it,
// requests still count but drop their exact row.
const DefaultRowCap = 1 << 20

// Volume is one tenant's striped slice of the tier. It implements
// workload.Target on the fleet's host engine, so the same generators that
// measure a single drive produce multi-tenant fleet traffic.
type Volume struct {
	f      *Fleet
	name   string
	group  []int
	size   int64
	shared []int // distinct drives of group, for flush fan-out

	// extent e of the volume lives at drive extDrive[e], local byte extBase[e].
	extDrive []int32
	extBase  []int64

	requests    int64
	subRequests int64
	lat         *stats.LatencyRecorder
	rows        []volRow
	rowCap      int
	droppedRows int64
}

// AddVolume carves a tenant volume of the given byte size, striped in extent
// (stripe-size) units across the drive group in order. Capacity is allocated
// from each drive's cursor; an error is returned when the group cannot hold
// the volume. Volumes must all be added before traffic starts: sharing is
// derived from the final tenant count per drive.
func (f *Fleet) AddVolume(name string, group []int, bytes int64) (*Volume, error) {
	if len(group) == 0 {
		return nil, fmt.Errorf("fleet: volume %s: empty drive group", name)
	}
	extents := bytes / f.stripe
	if extents <= 0 {
		return nil, fmt.Errorf("fleet: volume %s: size %d below one %d-byte extent", name, bytes, f.stripe)
	}
	v := &Volume{
		f:        f,
		name:     name,
		group:    append([]int(nil), group...),
		size:     extents * f.stripe,
		extDrive: make([]int32, extents),
		extBase:  make([]int64, extents),
		lat:      stats.NewLatencyRecorder(),
		rowCap:   DefaultRowCap,
	}
	// Validate the whole allocation before committing any cursor movement,
	// so a failed AddVolume leaves the tier exactly as it found it.
	need := make(map[int]int64)
	for e := int64(0); e < extents; e++ {
		di := group[int(e)%len(group)]
		if di < 0 || di >= len(f.drives) {
			return nil, fmt.Errorf("fleet: volume %s: drive index %d out of range", name, di)
		}
		need[di] += f.stripe
	}
	for di, n := range need {
		d := f.drives[di]
		if d.cursor+n > d.dev.Size() {
			return nil, fmt.Errorf("fleet: volume %s: drive %d cannot hold %d more bytes (%d of %d used)",
				name, di, n, d.cursor, d.dev.Size())
		}
	}
	touched := map[int]bool{}
	for e := int64(0); e < extents; e++ {
		di := group[int(e)%len(group)]
		d := f.drives[di]
		v.extDrive[e] = int32(di)
		v.extBase[e] = d.cursor
		d.cursor += f.stripe
		touched[di] = true
	}
	for di := range touched {
		f.drives[di].tenants++
		v.shared = append(v.shared, di)
	}
	// Deterministic flush fan-out order.
	for i := 1; i < len(v.shared); i++ {
		for j := i; j > 0 && v.shared[j] < v.shared[j-1]; j-- {
			v.shared[j], v.shared[j-1] = v.shared[j-1], v.shared[j]
		}
	}
	f.vols = append(f.vols, v)
	return v, nil
}

// Name returns the tenant label.
func (v *Volume) Name() string { return v.name }

// Engine returns the fleet's host engine (workload.Target).
func (v *Volume) Engine() *sim.Engine { return v.f.eng }

// Size returns the volume's capacity in bytes (workload.Target).
func (v *Volume) Size() int64 { return v.size }

// SectorSize returns the tier's common sector size (workload.Target).
func (v *Volume) SectorSize() int { return v.f.sector }

// frag is one drive-local piece of a volume request.
type frag struct {
	di  int32
	off int64
	n   int64
}

// split cuts [off, off+length) at extent boundaries into drive-local pieces,
// appended to frags.
func (v *Volume) split(frags []frag, off, length int64) []frag {
	for length > 0 {
		e := off / v.f.stripe
		within := off % v.f.stripe
		n := v.f.stripe - within
		if n > length {
			n = length
		}
		frags = append(frags, frag{di: v.extDrive[e], off: v.extBase[e] + within, n: n})
		off += n
		length -= n
	}
	return frags
}

// checkIO validates a request against the volume's bounds and alignment.
func (v *Volume) checkIO(off, n int64) error {
	if off < 0 || n <= 0 || off+n > v.size {
		return fmt.Errorf("fleet %s: access [%d,+%d) beyond size %d", v.name, off, n, v.size)
	}
	if s := int64(v.f.sector); off%s != 0 || n%s != 0 {
		return fmt.Errorf("fleet %s: unaligned access off=%d len=%d", v.name, off, n)
	}
	return nil
}

// opKind selects the drive entry point in submit.
type opKind int

const (
	opWrite opKind = iota
	opRead
	opTrim
)

// spanNames are the tenant-request span names, indexed by opKind.
var spanNames = [...]string{opWrite: "fleet.write", opRead: "fleet.read", opTrim: "fleet.trim"}

// volReq is one in-flight tenant request: its drive-local pieces and their
// joint completion. Pooled on the Fleet. The pieces live on the request, not
// in a fleet-wide scratch slice: syncDrive can fire completions that submit
// new requests while this one is still issuing its pieces.
type volReq struct {
	v            *Volume
	frags        []frag
	start        sim.Time
	remaining    int
	gc, gcShared sim.Time
	sp           obs.Span
	done         func()
	next         *volReq // freelist link
}

// volSub is one piece of a volReq in flight on a drive. Pooled on the Fleet;
// fire is its completion, bound once when the descriptor is created.
type volSub struct {
	req    *volReq
	d      *drive
	shared bool
	fire   func()
	next   *volSub // freelist link
}

func (f *Fleet) newReq() *volReq {
	r := f.freeReq
	if r == nil {
		return &volReq{}
	}
	f.freeReq, r.next = r.next, nil
	return r
}

func (f *Fleet) newSub() *volSub {
	s := f.freeSub
	if s == nil {
		s = &volSub{}
		s.fire = s.complete
		return s
	}
	f.freeSub, s.next = s.next, nil
	return s
}

// complete consumes the piece's attribution row; the last piece to complete
// records the tenant's blast-radius accounting, ends the span and runs the
// caller's callback. Both descriptors are recycled before that callback, so
// a follow-on submission reuses them.
//
// It runs inside the drive's event, mid-step, so it first re-keys the drive:
// tenant logic may submit and re-arm the pump from here, and the pump must
// see the drive's real next event, not the instant being fired.
func (s *volSub) complete() {
	r := s.req
	f := r.v.f
	if f.prefetching {
		panic("fleet: completion inside a prefetch window (drive violated its completion floor)")
	}
	f.group.Touch(s.d.idx)
	if row, ok := s.d.takeRow(); ok {
		g := row.Phases[obs.PhaseGCStall]
		r.gc += g
		if s.shared {
			r.gcShared += g
		}
	}
	s.req, s.d = nil, nil
	s.next, f.freeSub = f.freeSub, s
	r.remaining--
	if r.remaining > 0 {
		return
	}
	r.v.record(f.eng.Now()-r.start, r.gc, r.gcShared)
	r.sp.End()
	done := r.done
	r.v, r.done, r.sp = nil, nil, obs.Span{}
	r.next, f.freeReq = f.freeReq, r
	if done != nil {
		done()
	}
}

// submit splits a request across its drives, issues every piece, and wires a
// joint completion that consumes each sub-request's attribution row and
// records the tenant's blast-radius accounting.
func (v *Volume) submit(kind opKind, off, length int64, done func()) error {
	if err := v.checkIO(off, length); err != nil {
		return err
	}
	f := v.f
	r := f.newReq()
	if f.tr.Recording() {
		r.sp = f.tr.Begin(spanNames[kind],
			obs.Str("tenant", v.name), obs.Int("off", off), obs.Int("len", length))
	} else {
		r.sp = f.tr.Begin(spanNames[kind]) // untraced, or dropped at the record cap
	}
	r.v, r.done, r.start = v, done, f.eng.Now()
	r.gc, r.gcShared = 0, 0
	r.frags = v.split(r.frags[:0], off, length)
	r.remaining = len(r.frags)
	for _, fr := range r.frags {
		d := f.drives[fr.di]
		sub := f.newSub()
		sub.req, sub.d, sub.shared = r, d, d.tenants > 1
		f.syncDrive(d)
		v.subRequests++
		var err error
		switch kind {
		case opWrite:
			err = d.dev.WriteAsync(fr.off, nil, fr.n, sub.fire)
		case opRead:
			err = d.dev.ReadAsync(fr.off, nil, fr.n, sub.fire)
		case opTrim:
			err = d.dev.TrimAsync(fr.off, fr.n, sub.fire)
		}
		if err != nil {
			// The volume range was validated above; a drive rejecting a
			// mapped piece means the extent map is corrupt.
			panic(fmt.Sprintf("fleet %s: drive %d rejected mapped I/O: %v", v.name, fr.di, err))
		}
		f.group.Touch(d.idx)
	}
	f.armPump()
	return nil
}

// record accumulates one completed tenant request.
func (v *Volume) record(total, gc, gcShared sim.Time) {
	v.requests++
	if len(v.rows) >= v.rowCap {
		v.droppedRows++
		return
	}
	v.rows = append(v.rows, volRow{total: total, gc: gc, gcShared: gcShared})
	v.lat.Record(total)
}

// WriteAsync submits a striped write (workload.Target).
func (v *Volume) WriteAsync(off int64, data []byte, length int64, done func()) error {
	if data != nil {
		length = int64(len(data))
	}
	return v.submit(opWrite, off, length, done)
}

// ReadAsync submits a striped read (workload.Target).
func (v *Volume) ReadAsync(off int64, buf []byte, length int64, done func()) error {
	if buf != nil {
		length = int64(len(buf))
	}
	return v.submit(opRead, off, length, done)
}

// TrimAsync discards a striped range (workload.Target).
func (v *Volume) TrimAsync(off, length int64, done func()) error {
	return v.submit(opTrim, off, length, done)
}

// FlushAsync flushes every drive backing the volume; done fires once all have
// settled (workload.Target). Flushes are not recorded as tenant requests —
// the blast-radius metric is defined over read/write latency.
func (v *Volume) FlushAsync(done func()) error {
	remaining := len(v.shared)
	for _, di := range v.shared {
		d := v.f.drives[di]
		v.f.syncDrive(d)
		err := d.dev.FlushAsync(func() {
			if v.f.prefetching {
				panic("fleet: flush completion inside a prefetch window (drive violated its completion floor)")
			}
			v.f.group.Touch(di)
			d.takeRow() // consume; flush rows don't charge a request
			remaining--
			if remaining == 0 && done != nil {
				done()
			}
		})
		v.f.group.Touch(di)
		if err != nil {
			return fmt.Errorf("fleet %s: drive %d: %w", v.name, di, err)
		}
	}
	v.f.armPump()
	return nil
}

// TenantReport is one tenant's latency and interference summary.
type TenantReport struct {
	Tenant       string
	Drives       int // drives backing the volume
	SharedDrives int // of those, drives also backing other tenants
	Requests     int64
	P50          sim.Time
	P95          sim.Time
	P99          sim.Time
	P999         sim.Time
	// TailThreshold is the latency bound defining the p99 tail below.
	TailThreshold sim.Time
	// TailGCSharePPM is gc_stall's share of the p99 tail's summed latency
	// (parts per million), over all of the tenant's drives.
	TailGCSharePPM int64
	// BlastPPM is the GC blast radius: the share of the p99 tail's summed
	// latency charged to gc_stall on drives shared with other tenants —
	// interference the tenant cannot see, caused by neighbors it cannot name.
	BlastPPM int64
}

// Report summarizes the volume's completed requests.
func (v *Volume) Report() TenantReport {
	r := TenantReport{Tenant: v.name, Drives: len(v.shared), Requests: v.requests}
	for _, di := range v.shared {
		if v.f.drives[di].tenants > 1 {
			r.SharedDrives++
		}
	}
	if v.lat.Count() == 0 {
		return r
	}
	r.P50 = v.lat.Percentile(50)
	r.P95 = v.lat.Percentile(95)
	r.P99 = v.lat.Percentile(99)
	r.P999 = v.lat.Percentile(99.9)
	r.TailThreshold = r.P99
	var sum, gc, gcShared sim.Time
	for i := range v.rows {
		if v.rows[i].total < r.TailThreshold {
			continue
		}
		sum += v.rows[i].total
		gc += v.rows[i].gc
		gcShared += v.rows[i].gcShared
	}
	if sum > 0 {
		r.TailGCSharePPM = int64(gc) * 1_000_000 / int64(sum)
		r.BlastPPM = int64(gcShared) * 1_000_000 / int64(sum)
	}
	return r
}

// MemReport is fleet-wide resident-memory accounting for copy-on-write drive
// images (DESIGN.md §12): how many bytes the tier actually holds versus what
// the drives would occupy fully copied. Shared chunks are deduplicated by
// identity across drives, so ImageBytes counts each sealed image chunk once
// no matter how many clones reference it.
type MemReport struct {
	Drives          int   `json:"drives"`
	ResidentBytes   int64 `json:"resident_bytes"` // ImageBytes + PrivateBytes
	ImageBytes      int64 `json:"image_bytes"`    // unique shared image chunk bytes
	ImageChunks     int64 `json:"image_chunks"`   // unique shared image chunks
	SharedRefs      int64 `json:"shared_refs"`    // shared-chunk references summed over drives
	PrivateBytes    int64 `json:"private_bytes"`  // exclusively owned chunk bytes summed over drives
	CowCopies       int64 `json:"cow_copies"`     // chunks privately copied on first write
	UntouchedDrives int   `json:"untouched_drives"`
	UntouchedCow    int64 `json:"untouched_cow_copies"` // cow copies on drives backing no volume
}

// MemReport walks every drive's COW accounting. Deterministic given the same
// simulation state; call it from the simulation thread (experiments publish
// it into metrics; live endpoints read an atomically published copy).
func (f *Fleet) MemReport() MemReport {
	r := MemReport{Drives: len(f.drives)}
	seen := make(map[any]struct{})
	for _, d := range f.drives {
		st := d.dev.MemStats()
		r.PrivateBytes += st.OwnedBytes
		r.SharedRefs += st.SharedChunks
		r.CowCopies += st.CowCopies
		if d.tenants == 0 {
			r.UntouchedDrives++
			r.UntouchedCow += st.CowCopies
		}
		d.dev.VisitSharedChunks(func(id any, bytes int64) {
			if _, ok := seen[id]; ok {
				return
			}
			seen[id] = struct{}{}
			r.ImageChunks++
			r.ImageBytes += bytes
		})
	}
	r.ResidentBytes = r.ImageBytes + r.PrivateBytes
	return r
}

// String renders the one-line fleet memory summary printed under experiment
// tables and by ssdfio -fleet.
func (r MemReport) String() string {
	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	return fmt.Sprintf(
		"fleet memory: %d drives resident in %.1f MiB = %.1f MiB shared image (%d chunks) + %.1f MiB private dirty; %d COW chunk copies (%d on %d untouched drives)",
		r.Drives, mib(r.ResidentBytes), mib(r.ImageBytes), r.ImageChunks,
		mib(r.PrivateBytes), r.CowCopies, r.UntouchedCow, r.UntouchedDrives)
}

// BindObs attaches the fleet to a cell tracer: host-engine events count into
// the tracer's engine metrics, and tenant requests open fleet.write/read/trim
// spans (the drives' own spans stay on their private capped tracers — at
// fleet scale the tenant-level stream is the one worth exporting). The
// tier-level log page rides the same tracer (AttachTelemetry).
func (f *Fleet) BindObs(tr *obs.Tracer) {
	f.tr = tr
	tr.BindEngine(f.eng)
}

// PublishMetrics snapshots tier-level aggregates and per-tenant summaries
// into tr's metric set, and credits every drive engine's fired events to the
// cell so the events-fired metric covers the whole co-simulation. Call once
// at the end of a run.
func (f *Fleet) PublishMetrics(tr *obs.Tracer) {
	m := tr.Metrics()
	if m == nil {
		return
	}
	var written, read, programmed, gcMoved, driveEvents int64
	for _, d := range f.drives {
		c := d.dev.FTL().Counters()
		written += d.dev.HostBytesWritten()
		read += d.dev.HostBytesRead()
		programmed += c.PagesProgrammed()
		gcMoved += c.GCPagesProgrammed
		driveEvents += d.dev.Tracer().EventsFired()
	}
	tr.AddEventsFired(driveEvents)
	m.Set("ssdtp_fleet_drives", int64(len(f.drives)))
	m.Set("ssdtp_fleet_shared_drives", int64(f.SharedDrives()))
	m.Set("ssdtp_fleet_tenants", int64(len(f.vols)))
	m.Set("ssdtp_fleet_host_bytes_written_total", written)
	m.Set("ssdtp_fleet_host_bytes_read_total", read)
	m.Set("ssdtp_fleet_pages_programmed_total", programmed)
	m.Set("ssdtp_fleet_gc_pages_moved_total", gcMoved)
	mem := f.MemReport()
	m.Set("ssdtp_image_shared_chunks", mem.ImageChunks)
	m.Set("ssdtp_image_cow_chunks", mem.CowCopies)
	m.Set("ssdtp_image_resident_bytes", mem.ResidentBytes)
	for _, v := range f.vols {
		r := v.Report()
		pre := "ssdtp_fleet_tenant_" + v.name
		m.Set(pre+"_requests_total", r.Requests)
		m.Set(pre+"_sub_requests_total", v.subRequests)
		m.Set(pre+"_dropped_rows_total", v.droppedRows)
		m.Set(pre+"_p50_ns", int64(r.P50))
		m.Set(pre+"_p99_ns", int64(r.P99))
		m.Set(pre+"_p999_ns", int64(r.P999))
		m.Set(pre+"_tail_gc_share_ppm", r.TailGCSharePPM)
		m.Set(pre+"_blast_radius_ppm", r.BlastPPM)
		// The tenant's disclosed log page, summarized: what a transparent
		// device set would let this tenant observe about its own backing
		// drives (DESIGN.md §14).
		p := v.tenantPage()
		m.Set(pre+"_telemetry_active_gc_units", p.ActiveGCUnits)
		m.Set(pre+"_telemetry_free_blocks_min", p.FreeBlocksMin)
		m.Set(pre+"_telemetry_gc_pages_programmed_total", p.GCPagesProgrammed)
	}
}
