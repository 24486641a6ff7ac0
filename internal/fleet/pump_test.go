package fleet

import (
	"fmt"
	"testing"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/workload"
)

// TestParallelAttributionInvariant pins the sim.Resource acquire-wait
// accounting while two tenants run in parallel over shared drives under
// steady-state GC: for every sub-request attribution row a drive emits, the
// phase charges must sum exactly to the end-to-end latency.
func TestParallelAttributionInvariant(t *testing.T) {
	host := sim.NewEngine()
	devs := make([]*ssd.Device, 3)
	for i := range devs {
		cfg := testConfig("test-drive")
		tr := obs.NewTracer(fmt.Sprintf("drive%d", i))
		tr.SetRecordCap(1)
		cfg.Trace = tr
		devs[i] = ssd.NewDevice(sim.NewEngine(), cfg)
	}
	f := New(host, devs, 256*1024)
	// Interpose on each drive's row sink: verify the invariant, then run the
	// fleet's own hand-off so blast-radius accounting still works.
	var rows, gcRows int64
	for _, d := range f.drives {
		d := d
		d.dev.Tracer().Prof().SetRowSink(func(r obs.AttrRow) {
			rows++
			if r.Phases[obs.PhaseGCStall] > 0 {
				gcRows++
			}
			var sum sim.Time
			for _, p := range r.Phases {
				sum += p
			}
			if sum != r.Total {
				t.Fatalf("attribution row phases sum %d != total %d (%+v)", sum, r.Total, r)
			}
			d.lastRow = r
			d.hasRow = true
		})
	}

	perVol := devs[0].Size() * 85 / 100 * 3 / 2
	perVol = perVol / (256 * 1024) * (256 * 1024)
	var targets []workload.Target
	var specs []workload.Spec
	for tenant := 0; tenant < 2; tenant++ {
		v, err := f.AddVolume(fmt.Sprintf("t%d", tenant), StripeAll(3).Group(tenant), perVol)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, v)
		specs = append(specs, workload.Spec{
			Name: v.Name(), Pattern: workload.Sequential, RequestBytes: 64 * 1024,
			QueueDepth: 8, Seed: int64(tenant + 1),
		})
	}
	reqs := 2 * perVol / (64 * 1024)
	workload.RunMulti(targets, specs, workload.Options{MaxRequests: reqs})
	if rows == 0 {
		t.Fatal("no attribution rows observed")
	}
	if gcRows == 0 {
		t.Fatal("no row charged gc_stall; invariant not tested under GC")
	}
}

// TestParallelFlushAndTrim covers a volume's flush fan-out, which settles
// both backing drives in parallel, and its trim path: each step must
// complete, the sub-request count must match the striping, and a repeat of
// the identical sequence must end at the same host instant.
func TestParallelFlushAndTrim(t *testing.T) {
	run := func() (sim.Time, int64) {
		f := testFleet(t, 2, 256*1024)
		v, err := f.AddVolume("a", []int{0, 1}, 4*1024*1024)
		if err != nil {
			t.Fatal(err)
		}
		host := f.Engine()
		var done int
		step := func(what string, fn func(cb func()) error) {
			if err := fn(func() { done++ }); err != nil {
				t.Fatal(err)
			}
			host.RunWhile(func() bool { return done == 0 })
			if done != 1 {
				t.Fatalf("%s: %d completions, want 1", what, done)
			}
			done = 0
		}
		step("write", func(cb func()) error { return v.WriteAsync(0, nil, 512*1024, cb) })
		step("flush", func(cb func()) error { return v.FlushAsync(cb) })
		step("trim", func(cb func()) error { return v.TrimAsync(0, 256*1024, cb) })
		step("read", func(cb func()) error { return v.ReadAsync(256*1024, nil, 256*1024, cb) })
		return host.Now(), v.subRequests
	}
	now, subs := run()
	// 512 KiB write over two 256 KiB stripes, then one piece each for the
	// trim and the read; flushes are not sub-requests.
	if subs != 4 {
		t.Fatalf("sub-requests = %d, want 4", subs)
	}
	if now2, subs2 := run(); now2 != now || subs2 != subs {
		t.Fatalf("repeat run diverged: now %d vs %d, subs %d vs %d", now2, now, subs2, subs)
	}
}
