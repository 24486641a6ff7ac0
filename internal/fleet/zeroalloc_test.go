//go:build !race

package fleet

import (
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// The fleet's share of the zero-allocation request contract (DESIGN.md §13):
// on the serial pump with untraced drives, a steady-state volume write round
// trip allocates nothing — request and piece descriptors come from the
// fleet's freelists, piece completions and the pump callback are bound once,
// and the shard calendar re-keys in place. CI runs this (-run 'ZeroAlloc',
// no -race; the file is excluded under the race detector, whose
// instrumentation perturbs allocation accounting) as a regression gate.

// fzaState is package-level so the measured functions capture nothing.
var fzaState struct {
	host    *sim.Engine
	vol     *Volume
	pending int
	off     int64
}

func fzaComplete() { fzaState.pending-- }

func fzaBusy() bool { return fzaState.pending > 0 }

// fzaWriteOne writes 16 KiB at the next offset, straddling a stripe boundary
// every 16 requests so both the one- and two-piece paths run, and drives the
// host engine until it completes.
func fzaWriteOne() {
	s := &fzaState
	s.pending++
	if err := s.vol.WriteAsync(s.off, nil, 16<<10, fzaComplete); err != nil {
		panic(err)
	}
	s.off += 16<<10 + 4096
	if s.off+16<<10 > s.vol.Size() {
		s.off = 0
	}
	s.host.RunWhile(fzaBusy)
}

func TestFleetSubmitZeroAlloc(t *testing.T) {
	host := sim.NewEngine()
	devs := make([]*ssd.Device, 2)
	for i := range devs {
		devs[i] = ssd.NewDevice(sim.NewEngine(), testConfig("zeroalloc"))
	}
	f := New(host, devs, 256*1024)
	v, err := f.AddVolume("a", []int{0, 1}, devs[0].Size())
	if err != nil {
		t.Fatal(err)
	}
	fzaState.host, fzaState.vol, fzaState.pending, fzaState.off = host, v, 0, 0
	// Warm up until cache eviction, GC and every freelist reach steady state.
	for i := 0; i < 12000; i++ {
		fzaWriteOne()
	}
	if avg := testing.AllocsPerRun(2000, fzaWriteOne); avg != 0 {
		t.Fatalf("steady-state fleet volume write allocated %.2f objects/op, want 0", avg)
	}
}
