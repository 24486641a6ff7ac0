package onfi

import (
	"fmt"

	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
)

// BusStats aggregates traffic counters for one channel.
type BusStats struct {
	Reads     int64
	Programs  int64
	Erases    int64
	BytesIn   int64 // host -> chip (program payloads)
	BytesOut  int64 // chip -> host (read payloads)
	CmdCycles int64
}

// Bus is one flash channel: a set of chips sharing command/address/data
// wires. Transfers serialize on the bus; array operations proceed in
// parallel across dies and chips. All completion callbacks fire on the
// simulation engine.
type Bus struct {
	eng    *sim.Engine
	id     int
	timing nand.Timing
	chips  []*nand.Chip
	wires  *sim.Resource
	dies   [][]*sim.Resource // [chip][die]
	// suspendable marks dies whose current array operation is a
	// background program that supports program-suspend.
	suspendable [][]bool
	obs         []observerReg
	nextObsID   int
	stats       BusStats
	// ops are the in-flight operations (see op.go), free recycles their
	// descriptors, and qseq orders their resource-queue entries for
	// snapshot/restore.
	ops  []*flashOp
	free *flashOp
	qseq uint64

	// Observability (SetTrace): nand.* spans for per-die Perfetto tracks and
	// latency-attribution phase marks. Tagged ops record no span: they can
	// straddle a snapshot, and a restored clone must not diverge from a
	// from-scratch build.
	tr   *obs.Tracer
	prof *obs.Profiler
}

// SuspendOverhead is the array-time cost of suspending an in-progress
// background program to service a priority read (vendor datasheets quote
// tens of microseconds).
const SuspendOverhead = 50 * sim.Microsecond

// observerReg pairs an observer with the registration id its detach closure
// removes it by (Observer values, e.g. ObserverFunc, are not comparable).
type observerReg struct {
	id int
	o  Observer
}

// NewBus wires chips (all sharing timing t) onto channel id of engine eng.
func NewBus(eng *sim.Engine, id int, t nand.Timing, chips ...*nand.Chip) *Bus {
	b := &Bus{eng: eng, id: id, timing: t, chips: chips, wires: sim.NewResource(eng)}
	b.dies = make([][]*sim.Resource, len(chips))
	b.suspendable = make([][]bool, len(chips))
	for i, c := range chips {
		b.dies[i] = make([]*sim.Resource, c.Geometry().Dies)
		b.suspendable[i] = make([]bool, c.Geometry().Dies)
		for d := range b.dies[i] {
			b.dies[i][d] = sim.NewResource(eng)
		}
	}
	return b
}

// SetTrace binds the bus to a tracer: untagged operations record nand.*
// spans (ch/chip/die-attributed, rendered as per-die tracks by the Perfetto
// exporter) and charge latency-attribution phases on the request installed
// via the profiler's per-operation context slot. A nil tracer disables both.
func (b *Bus) SetTrace(tr *obs.Tracer) {
	b.tr = tr
	b.prof = tr.Prof()
}

// dieWaitPhase classifies time about to be spent queued for a die: waiting
// out a suspendable background program/erase is GC interference; anything
// else is foreground channel contention.
func (b *Bus) dieWaitPhase(chip, die int) obs.Phase {
	if b.suspendable[chip][die] {
		return obs.PhaseGCStall
	}
	return obs.PhaseChanWait
}

// beginNandSpan opens op's per-die span if op is untagged and tracing is on;
// otherwise op.sp stays inert. A tracer at its record cap gets the span
// without attributes: it will drop the record anyway.
func (b *Bus) beginNandSpan(op *flashOp, name string) {
	if op.tag != nil || !b.tr.Enabled() {
		return
	}
	if b.tr.Recording() {
		op.sp = b.tr.Begin(name,
			obs.Int("ch", int64(b.id)), obs.Int("chip", int64(op.chip)), obs.Int("die", int64(op.die())))
	} else {
		op.sp = b.tr.Begin(name)
	}
}

// ID returns the channel index.
func (b *Bus) ID() int { return b.id }

// Chips returns the chips on this channel.
func (b *Bus) Chips() []*nand.Chip { return b.chips }

// Timing returns the channel timing parameters.
func (b *Bus) Timing() nand.Timing { return b.timing }

// Stats returns a copy of the traffic counters.
func (b *Bus) Stats() BusStats { return b.stats }

// Utilization returns the cumulative time the bus wires were held.
func (b *Bus) Utilization() sim.Time { return b.wires.BusyTime() }

// WaitTime returns the cumulative time operations spent queued for the
// channel wires before being granted.
func (b *Bus) WaitTime() sim.Time { return b.wires.WaitTime() }

// Waits returns the number of wire acquisitions that had to queue.
func (b *Bus) Waits() int64 { return b.wires.Waits() }

// DieBusyTime returns chip's cumulative die-held time, summed over its dies.
func (b *Bus) DieBusyTime(chip int) sim.Time {
	var total sim.Time
	for _, d := range b.dies[chip] {
		total += d.BusyTime()
	}
	return total
}

// DieWaitTime returns chip's cumulative die-queue wait, summed over its dies.
func (b *Bus) DieWaitTime(chip int) sim.Time {
	var total sim.Time
	for _, d := range b.dies[chip] {
		total += d.WaitTime()
	}
	return total
}

// Observe registers an observer for all subsequent bus events and returns a
// function that detaches it. Attaching an observer is the simulated
// equivalent of soldering probe wires to the package pinout.
func (b *Bus) Observe(o Observer) (detach func()) {
	b.nextObsID++
	id := b.nextObsID
	b.obs = append(b.obs, observerReg{id: id, o: o})
	return func() {
		for i, r := range b.obs {
			if r.id == id {
				b.obs = append(b.obs[:i], b.obs[i+1:]...)
				return
			}
		}
	}
}

func (b *Bus) emit(ev BusEvent) {
	for _, r := range b.obs {
		r.o.OnBusEvent(ev)
	}
}

func (b *Bus) observed() bool { return len(b.obs) > 0 }

func (b *Bus) checkChip(chip int) *nand.Chip {
	if chip < 0 || chip >= len(b.chips) {
		panic(fmt.Sprintf("onfi: chip %d out of range on bus %d", chip, b.id))
	}
	return b.chips[chip]
}

func (b *Bus) markSuspendable(chip, die int, v bool) {
	b.suspendable[chip][die] = v
}

// emitCmdAddrAt is emitCmdAddr with events offset by `offset` from now, for
// callers composing several segments under one bus hold.
func (b *Bus) emitCmdAddrAt(chip, die int, cmd byte, withColumn bool, row uint32, offset sim.Time) sim.Time {
	t := b.eng.Now() + offset
	var dur sim.Time
	emit := b.observed()
	if emit {
		b.emit(BusEvent{Time: t, Bus: b.id, Chip: chip, Die: die, Kind: EventCmd, Byte: cmd})
	}
	dur += b.timing.CmdCycle
	b.stats.CmdCycles++
	if withColumn {
		for i := 0; i < ColumnAddrCycles; i++ {
			if emit {
				b.emit(BusEvent{Time: t + dur, Bus: b.id, Chip: chip, Die: die, Kind: EventAddr, Byte: 0})
			}
			dur += b.timing.AddrCycle
		}
	}
	for _, ab := range RowBytes(row) {
		if emit {
			b.emit(BusEvent{Time: t + dur, Bus: b.id, Chip: chip, Die: die, Kind: EventAddr, Byte: ab})
		}
		dur += b.timing.AddrCycle
	}
	return dur
}

// ResourceState is the utilization accounting of one sim.Resource at
// snapshot time.
type ResourceState struct {
	Busy      bool
	Since     sim.Time
	Total     sim.Time
	WaitTotal sim.Time
	Waits     int64
}

func captureResource(r *sim.Resource) ResourceState {
	return ResourceState{
		Busy: r.Busy(), Since: r.BusySince, Total: r.BusyTime(),
		WaitTotal: r.WaitTime(), Waits: r.Waits(),
	}
}

// BusState is a deep copy of a channel's mutable state, excluding in-flight
// ops (captured by SnapshotOps) and observers (snapshotting an observed bus
// panics — probe attachments are measurement fixtures, not drive state).
type BusState struct {
	Stats       BusStats
	Wires       ResourceState
	Dies        [][]ResourceState
	Suspendable [][]bool
}

// Snapshot captures the channel's stats, resource usage, and suspend marks.
func (b *Bus) Snapshot() *BusState {
	if b.observed() {
		panic("onfi: Snapshot with observers attached")
	}
	st := &BusState{Stats: b.stats, Wires: captureResource(b.wires)}
	st.Dies = make([][]ResourceState, len(b.dies))
	st.Suspendable = make([][]bool, len(b.suspendable))
	for i := range b.dies {
		st.Dies[i] = make([]ResourceState, len(b.dies[i]))
		for d, r := range b.dies[i] {
			st.Dies[i][d] = captureResource(r)
		}
		st.Suspendable[i] = append([]bool(nil), b.suspendable[i]...)
	}
	return st
}

// Restore overwrites a freshly built channel's state with a snapshot. The
// bus must have no ops in flight; in-flight ops are reinstated afterward via
// ResumeOp, re-acquiring the resources whose busy/queue accounting this
// call reinstates.
func (b *Bus) Restore(st *BusState) {
	if len(b.ops) != 0 {
		panic("onfi: Restore on a bus with ops in flight")
	}
	if len(st.Dies) != len(b.dies) {
		panic("onfi: Restore chip-count mismatch")
	}
	b.stats = st.Stats
	b.wires.RestoreUsage(st.Wires.Busy, st.Wires.Since, st.Wires.Total, st.Wires.WaitTotal, st.Wires.Waits)
	for i := range b.dies {
		if len(st.Dies[i]) != len(b.dies[i]) {
			panic("onfi: Restore die-count mismatch")
		}
		for d, r := range b.dies[i] {
			ds := st.Dies[i][d]
			r.RestoreUsage(ds.Busy, ds.Since, ds.Total, ds.WaitTotal, ds.Waits)
		}
		copy(b.suspendable[i], st.Suspendable[i])
	}
}
