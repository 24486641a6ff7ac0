package fleet

import (
	"fmt"
	"sync"
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// benchImage is one prefilled, drained testConfig drive that every
// benchmark drive is restored from as a copy-on-write clone.
var benchImage = sync.OnceValue(func() *ssd.DeviceState {
	dev := ssd.NewDevice(sim.NewEngine(), testConfig("bench-drive"))
	fill := dev.Size() * 85 / 100 / 65536 * 65536
	workload.Run(dev, workload.Spec{
		Name: "prefill", Pattern: workload.Sequential, RequestBytes: 65536, Length: fill,
	}, workload.Options{MaxRequests: fill / 65536})
	done := false
	if err := dev.FlushAsync(func() { done = true }); err != nil {
		panic(err)
	}
	dev.Engine().RunWhile(func() bool { return !done })
	return dev.Snapshot()
})

// BenchmarkFleetPump is the fleet pump's per-layer cost: four QD-8 16 KiB
// uniform-write tenants on 16-drive consistent-hash groups, run on the
// serial pump over tiers of 64 and 1024 drive clones with capped drive
// tracers. One op is one tenant request. The tenants touch at most 64
// drives either way, so the growth from 64 to 1024 drives is what the pump
// pays per idle drive.
func BenchmarkFleetPump(b *testing.B) {
	for _, drives := range []int{64, 1024} {
		b.Run(fmt.Sprintf("drives-%d", drives), func(b *testing.B) {
			img := benchImage()
			host := sim.NewEngine()
			devs := make([]*ssd.Device, drives)
			for i := range devs {
				cfg := testConfig("bench-drive")
				tr := obs.NewTracer(fmt.Sprintf("drive%04d", i))
				tr.SetRecordCap(1)
				cfg.Trace = tr
				devs[i] = ssd.NewDevice(sim.NewEngine(), cfg)
				devs[i].Restore(img)
			}
			f := New(host, devs, 256*1024)
			const tenants, group = 4, 16
			pl := ConsistentHash(drives, group, 1)
			size := group * (devs[0].Size()/tenants - f.stripe) / f.stripe * f.stripe
			targets := make([]workload.Target, tenants)
			specs := make([]workload.Spec, tenants)
			for tn := range targets {
				v, err := f.AddVolume(fmt.Sprintf("t%d", tn), pl.Group(tn), size)
				if err != nil {
					b.Fatal(err)
				}
				targets[tn] = v
				specs[tn] = workload.Spec{
					Name: v.Name(), Pattern: workload.Uniform, RequestBytes: 16 << 10,
					QueueDepth: 8, Seed: int64(1000 + tn),
				}
			}
			// Warm up untimed: every clone's one-time post-restore work (the
			// idle drives' background GC, first-write chunk copies, pool
			// growth) settles here, so the timed run is the steady state.
			workload.RunMulti(targets, specs, workload.Options{MaxRequests: 2000})
			b.ReportAllocs()
			b.ResetTimer()
			workload.RunMulti(targets, specs, workload.Options{MaxRequests: int64(b.N+tenants-1) / tenants})
		})
	}
}
