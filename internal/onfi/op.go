package onfi

import (
	"fmt"

	"ssdtp/internal/nand"
	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
)

// Every page read, page program and block erase on the bus runs as one
// flashOp (DESIGN.md §13): a freelist-recycled descriptor that advances
// through the stage functions below via Resource.AcquireArg and
// Engine.ScheduleArg, so a steady-state operation allocates nothing. Each
// op is registered in Bus.ops while in flight; a tagged op's lifecycle can
// be captured by SnapshotOps and reinstated mid-operation by ResumeOp
// (DESIGN.md §8).

// OpKind is the type of a flash operation.
type OpKind uint8

// Flash operation kinds.
const (
	OpRead OpKind = iota
	OpErase
	OpProgram
)

// OpPhase identifies where in its lifecycle an op is. Queue phases wait on
// a sim.Resource (no pending event); event phases own exactly one pending
// engine event.
type OpPhase uint8

// Operation phases, in lifecycle order.
const (
	OpDieQueue   OpPhase = iota // waiting for the die
	OpWireQueue1                // die held, waiting for wires (cmd+addr cycles)
	OpCmd                       // wires held, cmd+addr (and program data-in) cycles on the bus
	OpArray                     // array busy (tR / tPROG / tBERS), bus free
	OpWireQueue2                // array done, waiting for wires (data out; reads only)
	OpXfer                      // wires held, data-out transfer (reads only)
	// OpSuspend replaces OpArray for a priority read that suspended a
	// background program or erase: the read borrows the die, paying
	// SuspendOverhead on top of tR.
	OpSuspend
)

func (p OpPhase) queued() bool {
	return p == OpDieQueue || p == OpWireQueue1 || p == OpWireQueue2
}

// stages maps each phase to the stage function that ends it: the grant
// callback of a queue phase, or the pending event of an event phase.
// ResumeOp reinstates a captured op by this lookup.
var stages = [...]func(any){
	OpDieQueue:   dieGranted,
	OpWireQueue1: wiresGranted,
	OpCmd:        cmdDone,
	OpArray:      arrayDone,
	OpWireQueue2: xferGranted,
	OpXfer:       xferDone,
	OpSuspend:    arrayDone,
}

// kinds holds each kind's span name and its setup and confirm opcodes.
var kinds = [...]struct {
	span           string
	setup, confirm byte
}{
	OpRead:    {"nand.read", CmdReadSetup, CmdReadConfirm},
	OpErase:   {"nand.erase", CmdEraseSetup, CmdEraseConfirm},
	OpProgram: {"nand.program", CmdProgramSetup, CmdProgramConfirm},
}

// flashOp is the pooled descriptor of one in-flight operation. The entry
// point fills it, the stage functions advance it, and the final stage
// recycles it before invoking the completion callback, so a completion that
// issues a follow-up operation reuses the descriptor it just vacated.
type flashOp struct {
	b     *Bus
	chip  int
	kind  OpKind
	phase OpPhase
	// background marks a program or erase that set its die's suspend mark
	// at issue and clears it at completion.
	background bool
	// suspend marks a priority read that bypasses the die queue because a
	// background op on the die is suspended for it. The die belongs to the
	// suspended op, so the read signals only its command and address
	// cycles to observers.
	suspend bool
	// addrs are the target pages, all on one die: one per plane for a
	// program, exactly one for a read or erase. data holds the program
	// payloads, parallel to addrs, or is empty. Both keep their backing
	// arrays across recycling.
	addrs  []nand.Addr
	tarray sim.Time // array time of the OpArray/OpSuspend phase
	ax     *obs.ReqAttr
	qseq   uint64   // FIFO position of the current queue phase
	enq    sim.Time // queue-entry time of the current queue phase
	ev     sim.Event
	idx    int // slot in Bus.ops
	tag    any // non-nil: snapshot-visible (see SnapshotOps)

	data     [][]byte
	buf      []byte // read destination (may be nil)
	bits     int    // read: bit errors, computed at issue
	err      error  // commit error, set when the array operation ends
	sp       obs.Span
	readDone func(bitErrors int, err error)
	done     func(error) // program and erase
	next     *flashOp    // bus freelist link
}

// newOp pops the bus freelist (or grows it by one descriptor) and registers
// the op in Bus.ops.
func (b *Bus) newOp(kind OpKind, chip int, tag any) *flashOp {
	op := b.free
	if op != nil {
		b.free = op.next
		op.next = nil
	} else {
		op = &flashOp{}
	}
	op.b, op.kind, op.chip, op.tag = b, kind, chip, tag
	op.idx = len(b.ops)
	b.ops = append(b.ops, op)
	return op
}

// releaseOp unregisters op (swap-remove), zeroes it and returns it to the
// freelist, keeping only the backing arrays of addrs and data.
func (b *Bus) releaseOp(op *flashOp) {
	last := len(b.ops) - 1
	if op.idx != last {
		moved := b.ops[last]
		b.ops[op.idx] = moved
		moved.idx = op.idx
	}
	b.ops[last] = nil
	b.ops = b.ops[:last]
	clear(op.data)
	addrs, data := op.addrs[:0], op.data[:0]
	// Zero in place, then restore: a composite literal with fields set
	// would be built on the stack and then block-copied into *op.
	*op = flashOp{}
	op.addrs, op.data, op.next = addrs, data, b.free
	b.free = op
}

// queue enters a resource-queue phase; next runs at the grant.
func (op *flashOp) queue(phase OpPhase, r *sim.Resource, next func(any)) {
	b := op.b
	b.qseq++
	op.phase, op.qseq, op.enq = phase, b.qseq, b.eng.Now()
	r.AcquireSinceArg(op.enq, next, op)
}

// after enters an event phase; next runs d from now.
func (op *flashOp) after(phase OpPhase, d sim.Time, next func(any)) {
	op.phase = phase
	op.ev = op.b.eng.ScheduleArg(d, next, op)
}

func (op *flashOp) die() int { return op.addrs[0].Die }

// observed reports whether op's die-level events — confirm commands, data
// bursts, R/B# edges — reach observers. Callers check it before building an
// event, so an unobserved bus builds none.
func (op *flashOp) observed() bool { return op.b.observed() && !op.suspend }

// signal emits a die-level event for op, filling in its channel, chip and
// die.
func (op *flashOp) signal(ev BusEvent) {
	ev.Bus, ev.Chip, ev.Die = op.b.id, op.chip, op.die()
	op.b.emit(ev)
}

// --- Entry points ---------------------------------------------------------

// Read fills buf (PageSize bytes, or nil) from addr on chip and calls
// done with the chip's raw bit-error count for the page (what the
// controller's ECC engine reports) once the payload has transferred. A
// priority read whose die is busy with a suspendable background program or
// erase suspends it, paying SuspendOverhead, instead of queueing behind it;
// the suspended op's completion time is modeled as unchanged (the resume
// consumes slack the array operation already had). A non-nil tag makes the
// op snapshot-visible: SnapshotOps captures it with the tag, which the
// caller uses to re-derive done on ResumeOp.
func (b *Bus) Read(chip int, addr nand.Addr, buf []byte, priority bool, tag any, done func(bitErrors int, err error)) {
	c := b.checkChip(chip)
	op := b.newOp(OpRead, chip, tag)
	op.addrs = append(op.addrs, addr)
	op.bits = c.BitErrors(addr)
	op.buf = buf
	op.readDone = done
	op.tarray = b.timing.ReadPage
	if priority && b.suspendable[chip][addr.Die] && b.dies[chip][addr.Die].Busy() {
		// Command, address and transfer still serialize on the wires. The
		// span is named for the exporter's async track: without a die hold
		// it may overlap the suspended op's span, so it cannot live on the
		// nested per-die track.
		op.suspend = true
		op.tarray += SuspendOverhead
		op.ax = b.prof.TakeOp()
		op.ax.Mark(obs.PhaseChanWait)
		b.beginNandSpan(op, "nand.read.pri")
		op.queue(OpWireQueue1, b.wires, wiresGranted)
		return
	}
	b.issue(op)
}

// Program writes data[i] (PageSize bytes, or nil) to addrs[i] on chip and
// calls done with the first commit error, if any, when the array operation
// completes. All addresses must be on one die: more than one is a
// multi-plane program, whose payloads transfer in turn under one bus hold
// before a single array operation covers every plane. data is nil or
// parallel to addrs; Program copies both slices. slc selects pseudo-SLC
// array time — the bus protocol is identical, which is why a probe-based
// decoder tells SLC-mode programs apart only by their busy time. background
// marks the array phase suspendable by priority reads (program-suspend, as
// preemptible-GC designs use).
func (b *Bus) Program(chip int, addrs []nand.Addr, data [][]byte, slc, background bool, done func(error)) {
	if len(addrs) == 0 || (data != nil && len(data) != len(addrs)) {
		panic("onfi: Program needs non-empty addrs and nil or matching data")
	}
	b.checkChip(chip)
	die := addrs[0].Die
	for _, a := range addrs[1:] {
		if a.Die != die {
			panic("onfi: multi-plane program spans dies")
		}
	}
	op := b.newOp(OpProgram, chip, nil)
	op.addrs = append(op.addrs, addrs...)
	op.data = append(op.data, data...)
	op.done = done
	op.tarray = b.timing.ProgramPage
	if slc {
		op.tarray = b.timing.SLCMode().ProgramPage
	}
	if background {
		op.background = true
		b.markSuspendable(chip, die, true)
	}
	b.issue(op)
}

// Erase erases the block containing addr on chip; done(err) fires when the
// array operation completes. background marks the array phase suspendable
// by priority reads (erase-suspend). tag is as for Read.
func (b *Bus) Erase(chip int, addr nand.Addr, background bool, tag any, done func(error)) {
	b.checkChip(chip)
	op := b.newOp(OpErase, chip, tag)
	op.addrs = append(op.addrs, addr)
	op.done = done
	op.tarray = b.timing.EraseBlock
	if background {
		op.background = true
		b.markSuspendable(chip, addr.Die, true)
	}
	b.issue(op)
}

// issue claims the attribution context and queues op for its die.
func (b *Bus) issue(op *flashOp) {
	op.ax = b.prof.TakeOp()
	op.ax.Mark(b.dieWaitPhase(op.chip, op.die()))
	op.queue(OpDieQueue, b.dies[op.chip][op.die()], dieGranted)
}

// --- Stages ---------------------------------------------------------------

func dieGranted(arg any) {
	op := arg.(*flashOp)
	op.b.beginNandSpan(op, kinds[op.kind].span)
	op.ax.Mark(obs.PhaseChanWait)
	op.queue(OpWireQueue1, op.b.wires, wiresGranted)
}

// wiresGranted drives the command, address and (for a program) data-in
// cycles: per target page, setup command, address cycles, payload, then the
// confirm command (the plane-interleave confirm on all but the last page of
// a multi-plane program).
func wiresGranted(arg any) {
	op := arg.(*flashOp)
	b := op.b
	g := b.chips[op.chip].Geometry()
	op.ax.Mark(obs.PhaseNAND)
	k := kinds[op.kind]
	program := op.kind == OpProgram
	chip, die, last := op.chip, op.die(), len(op.addrs)-1
	now := b.eng.Now()
	var dur sim.Time
	for i, a := range op.addrs {
		dur += b.emitCmdAddrAt(chip, die, k.setup, op.kind != OpErase, g.RowAddress(a), dur)
		cmd := k.confirm
		if program {
			xfer := b.timing.TransferTime(g.PageSize)
			if op.observed() {
				op.signal(BusEvent{Time: now + dur, Dur: xfer, Kind: EventDataIn, Len: g.PageSize})
			}
			dur += xfer
			if i < last {
				cmd = CmdProgramPlane
			}
		}
		if op.observed() {
			op.signal(BusEvent{Time: now + dur, Kind: EventCmd, Byte: cmd})
		}
		dur += b.timing.CmdCycle
		b.stats.CmdCycles++
		if program {
			b.stats.BytesIn += int64(g.PageSize)
		}
	}
	op.after(OpCmd, dur, cmdDone)
}

func cmdDone(arg any) {
	op := arg.(*flashOp)
	if op.observed() {
		op.signal(BusEvent{Time: op.b.eng.Now(), Kind: EventBusy})
	}
	op.b.wires.Release()
	phase := OpArray
	if op.suspend {
		phase = OpSuspend
	}
	op.after(phase, op.tarray, arrayDone)
}

func arrayDone(arg any) {
	op := arg.(*flashOp)
	b := op.b
	c := b.chips[op.chip]
	switch op.kind {
	case OpRead:
		if op.phase == OpSuspend {
			// The suspend overhead within this interval is GC
			// interference (the read pays it only because a background op
			// held the die); the rest is array time.
			op.ax.MarkCarved(obs.PhaseGCStall, SuspendOverhead, obs.PhaseChanWait)
		}
		op.err = c.Read(op.addrs[0], op.buf)
		if op.observed() {
			op.signal(BusEvent{Time: b.eng.Now(), Kind: EventReady})
		}
		if op.phase != OpSuspend {
			op.ax.Mark(obs.PhaseChanWait)
		}
		op.queue(OpWireQueue2, b.wires, xferGranted)
		return
	case OpProgram:
		for i, a := range op.addrs {
			var payload []byte
			if i < len(op.data) {
				payload = op.data[i]
			}
			if err := c.Program(a, payload); err != nil && op.err == nil {
				op.err = err
			}
			b.stats.Programs++
		}
	case OpErase:
		op.err = c.Erase(op.addrs[0])
		b.stats.Erases++
	}
	if op.observed() {
		op.signal(BusEvent{Time: b.eng.Now(), Kind: EventReady})
	}
	b.complete(op)
}

func xferGranted(arg any) {
	op := arg.(*flashOp)
	b := op.b
	n := b.chips[op.chip].Geometry().PageSize
	op.ax.Mark(obs.PhaseNAND)
	xfer := b.timing.TransferTime(n)
	if op.observed() {
		op.signal(BusEvent{Time: b.eng.Now(), Dur: xfer, Kind: EventDataOut, Len: n})
	}
	b.stats.BytesOut += int64(n)
	b.stats.Reads++
	op.after(OpXfer, xfer, xferDone)
}

func xferDone(arg any) {
	op := arg.(*flashOp)
	op.b.wires.Release()
	op.b.complete(op)
}

// complete ends op's span, releases its die (and suspend mark), recycles
// the descriptor and invokes the completion callback.
func (b *Bus) complete(op *flashOp) {
	if op.sp.Active() {
		op.sp.End()
	}
	chip, die := op.chip, op.die()
	if !op.suspend {
		b.dies[chip][die].Release()
	}
	if op.background {
		b.markSuspendable(chip, die, false)
	}
	kind, bits, err, readDone, done := op.kind, op.bits, op.err, op.readDone, op.done
	b.releaseOp(op)
	if kind == OpRead {
		if readDone != nil {
			readDone(bits, err)
		}
	} else if done != nil {
		done(err)
	}
}

// --- Snapshot / resume ----------------------------------------------------

// OpState is the serializable state of one tagged op at snapshot time.
// Queue-phase ops record their FIFO position (QSeq); event-phase ops record
// their pending event's fire time and engine sequence, so restore can replay
// both resource order and same-instant event order exactly.
type OpState struct {
	Ch          int
	Kind        OpKind
	Chip        int
	Addr        nand.Addr
	Phase       OpPhase
	Bits        int
	Err         error
	Suspendable bool
	QSeq        uint64
	EnqueuedAt  sim.Time // queue phases: when the op joined its queue
	EventTime   sim.Time
	EventSeq    uint64
	Tag         any
}

// Queued reports whether the op is waiting on a resource (as opposed to
// owning a pending engine event).
func (st OpState) Queued() bool { return st.Phase.queued() }

// SnapshotOps captures the lifecycle state of every op in flight on this
// channel. Every in-flight op must be tagged and must hold its die (not a
// suspending priority read): any other op cannot be reinstated, and a clone
// silently missing it would diverge, so SnapshotOps panics on one. The bus's own state (stats, resource usage, suspend marks)
// is captured separately by Snapshot.
func (b *Bus) SnapshotOps() []OpState {
	if len(b.ops) == 0 {
		return nil
	}
	out := make([]OpState, 0, len(b.ops))
	for _, op := range b.ops {
		if op.tag == nil || op.suspend {
			panic(fmt.Sprintf("onfi: SnapshotOps with an untagged or suspending op (kind %d, phase %d) in flight on bus %d",
				op.kind, op.phase, b.id))
		}
		st := OpState{
			Ch: b.id, Kind: op.kind, Chip: op.chip, Addr: op.addrs[0], Phase: op.phase,
			Bits: op.bits, Err: op.err, Suspendable: op.background, QSeq: op.qseq,
			EnqueuedAt: op.enq, Tag: op.tag,
		}
		if !op.phase.queued() {
			if !op.ev.Pending() {
				panic("onfi: event-phase op without a pending event")
			}
			st.EventTime = op.ev.Time()
			st.EventSeq = op.ev.Seq()
		}
		out = append(out, st)
	}
	return out
}

// ResumeOp reinstates a captured op on this (freshly restored) bus. The
// caller owns global ordering: queue-phase ops must be resumed in QSeq order
// per channel before any event-phase op is resumed (sorted by EventSeq
// across channels), so resource FIFO positions and same-instant event order
// come back exactly. A queue-phase resume requires its resource to be busy —
// guaranteed when the bus state was captured between events, because a
// released resource grants its waiters synchronously.
func (b *Bus) ResumeOp(st OpState, readDone func(bitErrors int, err error), eraseDone func(error)) {
	if st.Ch != b.id {
		panic(fmt.Sprintf("onfi: ResumeOp for channel %d on bus %d", st.Ch, b.id))
	}
	tarray := b.timing.ReadPage
	switch {
	case st.Kind == OpErase && st.Phase <= OpArray:
		tarray = b.timing.EraseBlock
	case st.Kind != OpRead || st.Phase > OpXfer:
		panic(fmt.Sprintf("onfi: ResumeOp of kind %d in phase %d", st.Kind, st.Phase))
	}
	op := b.newOp(st.Kind, st.Chip, st.Tag)
	op.addrs = append(op.addrs, st.Addr)
	op.phase, op.bits, op.err, op.background = st.Phase, st.Bits, st.Err, st.Suspendable
	op.qseq, op.enq, op.tarray = st.QSeq, st.EnqueuedAt, tarray
	op.readDone, op.done = readDone, eraseDone
	if st.QSeq > b.qseq {
		b.qseq = st.QSeq
	}
	next := stages[st.Phase]
	if !st.Queued() {
		op.ev = b.eng.AtArg(st.EventTime, next, op)
		return
	}
	r := b.wires
	if st.Phase == OpDieQueue {
		r = b.dies[st.Chip][st.Addr.Die]
	}
	if !r.Busy() {
		panic("onfi: ResumeOp queue phase on an idle resource")
	}
	// AcquireSince keeps the resource's wait accounting identical to a
	// from-scratch run: the wait charged at grant spans from the op's
	// original enqueue time, not from the restore instant.
	r.AcquireSinceArg(st.EnqueuedAt, next, op)
}
