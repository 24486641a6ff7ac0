package onfi

import (
	"reflect"
	"sort"
	"testing"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

type opRec struct {
	label string
	t     sim.Time
	bits  int
	ok    bool
}

// resumeAll reinstates captured ops in the order the restore protocol
// requires: queue-phase ops in QSeq order first (they mint no events), then
// event-phase ops in engine-sequence order.
func resumeAll(b *Bus, states []OpState, rdone func(string) func(int, error), edone func(string) func(error)) {
	var queued, pending []OpState
	for _, st := range states {
		if st.Queued() {
			queued = append(queued, st)
		} else {
			pending = append(pending, st)
		}
	}
	sort.Slice(queued, func(i, j int) bool { return queued[i].QSeq < queued[j].QSeq })
	sort.Slice(pending, func(i, j int) bool { return pending[i].EventSeq < pending[j].EventSeq })
	for _, st := range append(queued, pending...) {
		label := st.Tag.(string)
		b.ResumeOp(st, rdone(label), edone(label))
	}
}

// Snapshot tagged ops mid-flight after every possible event boundary and
// resume on a fresh bus: the clone must complete the remaining ops at the
// same times with the same stats as the original.
func TestTrackedSnapshotResumeSweep(t *testing.T) {
	issue := func(eng *sim.Engine, b *Bus, recs *[]opRec) {
		rdone := func(label string) func(int, error) {
			return func(bits int, err error) {
				*recs = append(*recs, opRec{label, eng.Now(), bits, err == nil})
			}
		}
		edone := func(label string) func(error) {
			return func(err error) {
				*recs = append(*recs, opRec{label, eng.Now(), 0, err == nil})
			}
		}
		// Seed programmed pages first so reads and the reliability-free
		// bit-error path see non-trivial chip state.
		b.Program(0, []nand.Addr{{Block: 1}}, nil, false, false, nil)
		b.Program(1, []nand.Addr{{Die: 1, Block: 2}}, nil, false, false, nil)
		eng.Run()
		b.Read(0, nand.Addr{Block: 1}, nil, false, "r0", rdone("r0"))
		b.Read(0, nand.Addr{Block: 1, Page: 0, Plane: 1}, nil, false, "r1", rdone("r1"))
		b.Erase(1, nand.Addr{Die: 1, Block: 2}, true, "e0", edone("e0"))
		b.Read(0, nand.Addr{Die: 1}, nil, false, "r2", rdone("r2"))
		b.Erase(0, nand.Addr{Block: 1}, false, "e1", edone("e1"))
	}

	// Reference run: full completion order and step count.
	refEng, refBus := testBus(t, 2)
	var refRecs []opRec
	issue(refEng, refBus, &refRecs)
	steps := 0
	for refEng.Step() {
		steps++
	}

	for k := 0; k <= steps; k++ {
		// Original, paused after k events.
		eng, b := testBus(t, 2)
		var preRecs []opRec
		issue(eng, b, &preRecs)
		for i := 0; i < k; i++ {
			eng.Step()
		}

		// Capture everything, then clone onto a fresh engine/bus.
		busSnap := b.Snapshot()
		opSnaps := b.SnapshotOps()
		chipSnaps := make([]*nand.ChipState, len(b.Chips()))
		for i, c := range b.Chips() {
			chipSnaps[i] = c.Snapshot()
		}

		ceng, cb := testBus(t, 2)
		ceng.Rebase(eng.Now())
		for i, c := range cb.Chips() {
			c.Restore(chipSnaps[i])
		}
		cb.Restore(busSnap)
		cloneRecs := append([]opRec(nil), preRecs...)
		resumeAll(cb, opSnaps,
			func(label string) func(int, error) {
				return func(bits int, err error) {
					cloneRecs = append(cloneRecs, opRec{label, ceng.Now(), bits, err == nil})
				}
			},
			func(label string) func(error) {
				return func(err error) {
					cloneRecs = append(cloneRecs, opRec{label, ceng.Now(), 0, err == nil})
				}
			})
		ceng.Run()

		if !reflect.DeepEqual(cloneRecs, refRecs) {
			t.Fatalf("k=%d: completions diverge:\nref:   %v\nclone: %v", k, cloneRecs, refRecs)
		}
		if cb.Stats() != refBus.Stats() {
			t.Fatalf("k=%d: stats diverge: %+v vs %+v", k, cb.Stats(), refBus.Stats())
		}
		if cb.Utilization() != refBus.Utilization() {
			t.Fatalf("k=%d: utilization diverges", k)
		}
		for i, c := range cb.Chips() {
			if c.Stats() != refBus.Chips()[i].Stats() {
				t.Fatalf("k=%d: chip %d stats diverge", k, i)
			}
		}
		if ceng.Now() != refEng.Now() {
			t.Fatalf("k=%d: final clocks diverge: %d vs %d", k, ceng.Now(), refEng.Now())
		}
	}
}

// An untagged op cannot be reinstated on a clone, so capturing while one is
// in flight must fail loudly rather than drop it. Here an untagged read
// waits in the die queue behind a tagged erase.
func TestSnapshotOpsPanicsOnUntaggedOp(t *testing.T) {
	eng, b := testBus(t, 1)
	b.Erase(0, nand.Addr{Block: 1}, false, "e0", nil)
	b.Read(0, nand.Addr{Block: 2}, nil, false, nil, nil)
	eng.RunUntil(eng.Now() + sim.Microsecond)
	if n := len(b.ops); n != 2 {
		t.Fatalf("%d ops in flight, want the erase and the queued read", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("SnapshotOps captured a bus with an untagged op in flight")
		}
	}()
	b.SnapshotOps()
}
