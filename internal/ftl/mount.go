package ftl

import "ssdtp/internal/nand"

// Mount simulates the boot-time reload of the persistent mapping table.
// Eager mount reads the entire on-flash map (logicalSectors x MapEntryBytes
// bytes of journal/checkpoint pages, fanned across all channels); on-demand
// mount reads only the root metadata, deferring each map chunk to its first
// access — the design §3.2 found in the 840 EVO, "presumably to reduce
// device boot time". done fires when the device is ready for host I/O.
func (f *FTL) Mount(eager bool, done func()) {
	pages := int64(1) // checkpoint root
	if eager {
		mapBytes := f.logicalSectors * int64(f.cfg.MapEntryBytes)
		pages += (mapBytes + int64(f.g.PageSize) - 1) / int64(f.g.PageSize)
	}
	f.counters.MountReads += pages

	// Fan the reads across parallel units the way the data itself is
	// striped; keep a bounded number outstanding.
	const window = 32
	var issued, completed int64
	var pump func()
	pump = func() {
		for issued < pages && issued-completed < window {
			pu := &f.pus[f.puForSeq(issued)]
			page := int(issued % int64(int64(f.blksPerPU)*int64(f.pagesPerBlk)))
			addr := nand.Addr{
				Die:   pu.die,
				Plane: pu.plane,
				Block: page / f.pagesPerBlk,
				Page:  page % f.pagesPerBlk,
			}
			issued++
			f.flash.Read(pu.ch, pu.chip, addr, false, nil, func(int, error) {
				completed++
				if completed == pages {
					if done != nil {
						done()
					}
					return
				}
				pump()
			})
		}
	}
	pump()
}
