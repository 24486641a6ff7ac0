//go:build !race

package onfi

import (
	"testing"

	"ssdtp/internal/nand"
	"ssdtp/internal/sim"
)

// Every operation path on the bus must be allocation-free in steady state:
// op descriptors are recycled through the bus freelist and every stage runs
// as a static function carried by AcquireArg/ScheduleArg (DESIGN.md §13).
// CI runs this (-run 'ZeroAlloc') as a regression gate; the file is excluded
// under the race detector, whose instrumentation allocates.
func TestBusOpsZeroAlloc(t *testing.T) {
	g := nand.Geometry{Dies: 2, Planes: 2, BlocksPerPlane: 16, PagesPerBlock: 64, PageSize: 2048}
	newBus := func() (*sim.Engine, *Bus) {
		eng := sim.NewEngine()
		return eng, NewBus(eng, 0, nand.ONFI2MLC(), nand.NewChip(nand.ChipConfig{Geometry: g}))
	}
	// page walks die 0, plane 0 in program order, so no program ever
	// fails (a failed commit allocates its error).
	page := func(n int) nand.Addr {
		return nand.Addr{Block: n / g.PagesPerBlock, Page: n % g.PagesPerBlock}
	}
	var fails int
	done := func(err error) {
		if err != nil {
			fails++
		}
	}
	readDone := func(_ int, err error) { done(err) }
	program := func(slc, background bool) func(*sim.Engine, *Bus, int) {
		return func(eng *sim.Engine, b *Bus, n int) {
			b.Program(0, []nand.Addr{page(n)}, nil, slc, background, done)
			eng.Run()
		}
	}
	planes := make([]nand.Addr, 2)
	paths := []struct {
		name string
		run  func(eng *sim.Engine, b *Bus, n int)
	}{
		{"program", program(false, false)},
		{"program-slc", program(true, false)},
		{"program-background", program(false, true)},
		{"read", func(eng *sim.Engine, b *Bus, n int) {
			b.Read(0, nand.Addr{}, nil, false, nil, readDone)
			eng.Run()
		}},
		{"read-priority-suspend", func(eng *sim.Engine, b *Bus, n int) {
			b.Program(0, []nand.Addr{page(n)}, nil, false, true, done)
			eng.RunUntil(eng.Now() + b.Timing().ProgramPage/2)
			if !b.suspendable[0][0] || !b.dies[0][0].Busy() {
				fails++ // the read would queue instead of suspending
			}
			b.Read(0, nand.Addr{Plane: 1}, nil, true, nil, readDone)
			eng.Run()
		}},
		{"program-2-plane", func(eng *sim.Engine, b *Bus, n int) {
			planes[0], planes[1] = page(n), page(n)
			planes[1].Plane = 1
			b.Program(0, planes, nil, false, false, done)
			eng.Run()
		}},
		{"erase", func(eng *sim.Engine, b *Bus, n int) {
			b.Erase(0, nand.Addr{}, false, nil, done)
			eng.Run()
		}},
		{"erase-background", func(eng *sim.Engine, b *Bus, n int) {
			b.Erase(0, nand.Addr{}, true, nil, done)
			eng.Run()
		}},
	}
	const runs = 200 // AllocsPerRun adds one warm-up call
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			eng, b := newBus()
			n := 0
			avg := testing.AllocsPerRun(runs, func() {
				p.run(eng, b, n)
				n++
			})
			if avg != 0 {
				t.Errorf("%s allocated %.2f objects/op, want 0", p.name, avg)
			}
			if fails != 0 {
				t.Fatalf("%s: %d operations failed", p.name, fails)
			}
			if len(b.ops) != 0 {
				t.Fatalf("%s: %d ops left in flight", p.name, len(b.ops))
			}
		})
	}
}
