//go:build !race

// Allocation counts are meaningless under the race detector's
// instrumentation, so these tests are built out there.

package ftl_test

import (
	"math/rand"
	"testing"

	"ssdtp/internal/ftl"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

// The FTL's background relocation paths must allocate nothing at steady
// state (DESIGN.md §13): garbage collection reuses its PU's retired gcJob,
// and a refresh program carries its source page on the pooled pageOp
// instead of a completion closure. Each measured run below spans whole
// relocations — at least two victim erases, or a refresh program — so a
// single allocation per relocation fails the test. testing.AllocsPerRun
// truncates its average, so a per-request measurement would round one
// allocation per relocation down to 0.
// CI runs these (-run 'ZeroAlloc', no -race) as a regression gate.

// zaState is package-level so the measured functions capture nothing.
var zaState struct {
	f       *ftl.FTL
	eng     *sim.Engine
	rng     *rand.Rand
	pending int
}

func zaDone() { zaState.pending-- }

func zaBusy() bool { return zaState.pending > 0 }

// zaRun runs the engine until the outstanding request completes. A wedged
// FTL would otherwise leave the measured loops waiting forever for erases or
// refreshes that never come.
func zaRun() {
	zaState.eng.RunWhile(zaBusy)
	if zaBusy() {
		panic("engine ran out of events with a request outstanding")
	}
}

func zaWrite(lsn int64, n int) {
	s := &zaState
	s.pending++
	if err := s.f.Write(lsn, n, zaDone); err != nil {
		panic(err)
	}
	zaRun()
}

func zaRead(lsn int64) {
	s := &zaState
	s.pending++
	if err := s.f.Read(lsn, 1, zaDone); err != nil {
		panic(err)
	}
	zaRun()
}

// zaFTL builds a device from cfg, fills the given fraction of its logical
// space with sequential 64 KiB writes, then flushes.
func zaFTL(t *testing.T, cfg ssd.Config, fill float64) {
	t.Helper()
	cfg.FTL.Seed = 1
	eng := sim.NewEngine()
	f := ssd.NewDevice(eng, cfg).FTL()
	zaState.f, zaState.eng, zaState.rng, zaState.pending = f, eng, rand.New(rand.NewSource(1)), 0
	end := int64(float64(f.LogicalSectors()) * fill)
	for lsn := int64(0); lsn+16 <= end; lsn += 16 {
		zaWrite(lsn, 16)
	}
	flushed := false
	f.Flush(func() { flushed = true })
	eng.RunWhile(func() bool { return !flushed })
	if !flushed {
		t.Fatal("prefill flush never completed")
	}
}

// zaCollect overwrites random 4 KiB sectors until two more victims have
// been erased.
func zaCollect() {
	s := &zaState
	target := s.f.Counters().Erases + 2
	for s.f.Counters().Erases < target {
		zaWrite(s.rng.Int63n(s.f.LogicalSectors()), 1)
	}
}

func TestGCRelocationZeroAlloc(t *testing.T) {
	zaFTL(t, ssd.MQSimBase(), 1)
	// Warm every pool (page ops, cache entries, the index, each PU's spare
	// job and its slices) to its steady-state size.
	for i := 0; i < 200; i++ {
		zaCollect()
	}
	before := zaState.f.Counters()
	if avg := testing.AllocsPerRun(50, zaCollect); avg != 0 {
		t.Fatalf("steady-state GC allocated %.2f objects per two victims, want 0", avg)
	}
	after := zaState.f.Counters()
	if after.GCPagesProgrammed == before.GCPagesProgrammed {
		t.Fatal("no relocation programs ran during the measurement")
	}
}

// zaRefresh reads random sectors until one more refresh program commits.
func zaRefresh() {
	s := &zaState
	target := s.f.Counters().RefreshPagesProgrammed + 1
	for s.f.Counters().RefreshPagesProgrammed < target {
		zaRead(s.rng.Int63n(s.f.LogicalSectors()))
	}
}

func TestRefreshZeroAlloc(t *testing.T) {
	cfg := ssd.MX500()
	zaFTL(t, cfg, 0.85)
	for i := 0; i < 50; i++ {
		zaRefresh()
	}
	if avg := testing.AllocsPerRun(50, zaRefresh); avg != 0 {
		t.Fatalf("steady-state refresh allocated %.2f objects per refresh, want 0", avg)
	}
}
