package ftl

import (
	"ssdtp/internal/nand"
	"ssdtp/internal/onfi"
)

// Flash is the array abstraction the FTL drives: a grid of channels × chips,
// each chip with the same geometry. Implementations sequence operations in
// simulated time (the ssd package provides one backed by onfi buses; tests
// use lightweight fakes). Payload bytes are not carried here — content
// fidelity lives at the device layer; the FTL decides placement and pays
// timing.
//
// The FTL tags its background reads and erases — GC victim reads, GC
// erases, scrub patrol reads — so that a drive image captured with trailing
// collection still in the pipe records those in-flight ops (SnapshotOps) and
// Restore resumes them mid-operation (ResumeOp). A nil tag marks an op that
// is never in flight at a snapshot (host traffic, programs, the mount scan).
// An implementation that cannot capture ops (a test fake) returns none from
// SnapshotOps, and its FTL cannot be snapshotted mid-collection.
type Flash interface {
	// Geometry returns the per-chip layout.
	Geometry() nand.Geometry
	// Channels returns the channel count.
	Channels() int
	// ChipsPerChannel returns chips per channel.
	ChipsPerChannel() int
	// Read performs a page read; done fires when the payload would have
	// transferred, carrying the raw bit-error count the controller's ECC
	// engine would report (0 when the implementation does not model
	// reliability). A priority read may suspend an in-progress background
	// program on the target die instead of queueing behind it. tag, if
	// non-nil, makes the op snapshot-visible.
	Read(ch, chip int, a nand.Addr, priority bool, tag any, done func(bitErrors int, err error))
	// Program performs a page program; slc selects pseudo-SLC timing if the
	// implementation supports it; background marks the array phase
	// suspendable by priority reads (relocation/refresh traffic). done(err)
	// fires when the array operation completes.
	Program(ch, chip int, a nand.Addr, slc, background bool, done func(error))
	// Erase erases the block containing a; background marks it suspendable
	// by priority reads (erase-suspend). tag is as for Read.
	Erase(ch, chip int, a nand.Addr, background bool, tag any, done func(error))
	// SnapshotOps captures every op in flight across the array; each must
	// be tagged.
	SnapshotOps() []onfi.OpState
	// ResumeOp reinstates a captured op on a freshly restored array, with
	// the completion callback re-derived from its tag.
	ResumeOp(st onfi.OpState, readDone func(bitErrors int, err error), eraseDone func(error))
}

// Tags the FTL attaches to its snapshot-visible ops. A tag is the op's
// identity across snapshot/restore: Restore routes each captured op back to
// its completion logic by the tag alone (the callbacks themselves are per-PU
// singletons that read their position from pu.job, or — for scrub — are
// rebuilt from the tagged ppn).
type (
	gcReadTag  struct{ pu int }
	gcEraseTag struct{ pu int }
	scrubTag   struct{ ppn int64 }
)
