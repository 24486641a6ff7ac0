package experiments

import (
	"strings"
	"testing"

	"ssdtp/internal/ftl"
)

func TestFig1AgingShape(t *testing.T) {
	res := Fig1Aging(Quick, 11)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 devices x 3 profiles)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ExtfsOps <= 0 || row.LogfsOps <= 0 {
			t.Errorf("%s/%s: zero throughput (%v, %v)", row.Device, row.Aging, row.ExtfsOps, row.LogfsOps)
		}
		if row.Ratio <= 0 {
			t.Errorf("%s/%s: ratio %v", row.Device, row.Aging, row.Ratio)
		}
	}
	lo, hi := res.RatioRange()
	// Figure 1's point: the ratio is NOT a constant "2x or more"; it must
	// vary meaningfully across device x aging.
	if hi/lo < 1.15 {
		t.Errorf("ratio range %.2f..%.2f too flat to reproduce Figure 1", lo, hi)
	}
	if !strings.Contains(res.Table(), "logfs/extfs") {
		t.Error("table missing ratio column")
	}
}

func TestFig2CompressionShape(t *testing.T) {
	res := Fig2Compression(Quick, 3)
	if len(res.Cells) != 18 {
		t.Fatalf("cells = %d, want 18 (6 schemes x 3 levels)", len(res.Cells))
	}
	worst := res.WorstOverOptimal("high")
	if worst < 1.8 || worst > 6 {
		t.Errorf("worst/optimal at high compressibility = %.2f, want ~2.5 (+156%%)", worst)
	}
	// The spread should shrink as data gets less compressible.
	low := res.WorstOverOptimal("low")
	if low >= worst {
		t.Errorf("spread did not shrink at low compressibility: high=%.2f low=%.2f", worst, low)
	}
	for _, c := range res.Cells {
		if c.Scheme == "re-bp32" && c.Normalized != 1 {
			t.Errorf("baseline not normalized to 1: %v", c.Normalized)
		}
	}
}

func TestFig3TailLatencyShape(t *testing.T) {
	res := Fig3TailLatency(Quick, 5)
	if len(res.Series) != 12 {
		t.Fatalf("series = %d, want 12 (4 configs x 3 sizes)", len(res.Series))
	}
	for _, s := range res.Series {
		if s.Requests == 0 || s.P99 == 0 || len(s.Tail) == 0 {
			t.Errorf("%s/%d: empty series", s.Config, s.RequestBytes)
		}
		if s.P99 < s.P50 || s.Max < s.P99 {
			t.Errorf("%s/%d: order statistics inverted", s.Config, s.RequestBytes)
		}
	}
	// The headline: p99 varies by a large factor across fundamentally
	// different FTLs at some request size.
	if spread := res.P99Spread(); spread < 2 {
		t.Errorf("p99 spread = %.1fx, want >= 2x (paper: up to 10x)", spread)
	}
	// Mean deltas stay comparatively small for most knobs (the
	// MQSim-accuracy point): the non-cache variants sit within ~2x of the
	// 18% threshold.
	tab := TableS1MeanDelta(res)
	if len(tab.Rows) != 12 {
		t.Fatalf("tabS1 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row.Config == "baseline" && row.DeltaPct != 0 {
			t.Errorf("baseline delta = %v", row.DeltaPct)
		}
		if (row.Config == "rand-greedy-gc" || row.Config == "pdwc-alloc") &&
			(row.DeltaPct < -40 || row.DeltaPct > 60) {
			t.Errorf("%s/%d: mean delta %.1f%% far from the paper's ~20%% band",
				row.Config, row.RequestBytes, row.DeltaPct)
		}
	}
}

func TestFig4aShape(t *testing.T) {
	res := Fig4aNandPageSize(Quick, 7)
	if len(res.Points) < 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	conv := res.Converged()
	if conv < 27000 || conv > 31000 {
		t.Errorf("converged at %.0f bytes/page, want ~30000", conv)
	}
	if res.Points[0].BytesPerPage() >= conv {
		t.Error("small sizes should sit below the asymptote")
	}
}

func TestFig4bShape(t *testing.T) {
	res := Fig4bWAF(Quick, 9)
	if len(res.Separate) != 3 {
		t.Fatalf("separate runs = %d", len(res.Separate))
	}
	if res.Predicted <= 0.3 || res.Predicted >= 1.0 {
		t.Errorf("predicted WAF = %.3f, want ~0.5-0.6", res.Predicted)
	}
	if res.Error() < 1.2 {
		t.Errorf("measured/predicted = %.2f, want the mixed run to beat the additive model by >1.2x (paper 1.6x)", res.Error())
	}
	if !strings.Contains(res.Table(), "measured") {
		t.Error("table missing measured row")
	}
}

func TestFig5Shape(t *testing.T) {
	res := Fig5SignalTrace(Quick, 1)
	if res.Events == 0 || res.Bursts == 0 {
		t.Fatalf("empty capture: %+v", res)
	}
	if !res.BurstUnderMs {
		t.Errorf("first burst %v not under 1ms", res.FirstBurst.Duration())
	}
	for _, want := range []string{"CLE", "DQ", "R/B#"} {
		if !strings.Contains(res.Waveform, want) {
			t.Errorf("waveform missing %s", want)
		}
	}
	if len(res.DecodedOps) == 0 {
		t.Error("first burst decoded to nothing")
	}
	checkDigest(t, "fig5", res.Table())
}

func TestFig6AllFindingsMatch(t *testing.T) {
	res := Fig6JTAG(Quick, 2)
	if !res.AllOK() {
		t.Errorf("findings failed validation:\n%s", res.Table())
	}
	if len(res.Checks) < 12 {
		t.Errorf("only %d checks", len(res.Checks))
	}
}

func TestTabS2ProbeRateShape(t *testing.T) {
	res := TabS2ProbeRate(Quick, 1)
	if len(res.Rows) < 4 || res.ReferenceOps == 0 {
		t.Fatalf("res = %+v", res)
	}
	// Fast analyzers decode everything; slow ones lose command/address
	// cycles to aliasing — the equipment constraint of §3.1.
	if !res.Rows[0].DecodeIntact {
		t.Error("fastest rate did not decode intact")
	}
	last := res.Rows[len(res.Rows)-1]
	if last.DecodeIntact {
		t.Error("slowest rate implausibly decoded intact")
	}
	if last.Aliased == 0 {
		t.Error("slow analyzer aliased nothing")
	}
	if res.MinFullFidelityMHz() < 20 {
		t.Errorf("min full-fidelity rate = %.0f MHz, expected >= 40 on a 40 MT/s bus", res.MinFullFidelityMHz())
	}
	checkDigest(t, "tabS2", res.Table())
}

func TestTabS3OpenChannelShape(t *testing.T) {
	res := TabS3OpenChannel(Quick, 42)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if imp := res.Improvement(); imp < 1.5 {
		t.Errorf("open-channel improvement = %.2fx, want >= 1.5x (paper cites 4x app-level)", imp)
	}
	if res.Rows[1].Predictability() >= res.Rows[0].Predictability() {
		t.Errorf("knowing host not more predictable: %.1f vs %.1f",
			res.Rows[1].Predictability(), res.Rows[0].Predictability())
	}
}

func TestTabS4DesignSweepShape(t *testing.T) {
	res := TabS4DesignSweep(Quick, 3)
	if len(res.Cells) != 24 {
		t.Fatalf("cells = %d, want 24", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Mean == 0 || c.P99 == 0 {
			t.Errorf("empty cell %v/%v/%v", c.GC, c.Cache, c.Alloc)
		}
	}
	// The design space spreads tails wider than means — §2.1's argument
	// that simulator-grade mean accuracy hides high-order design changes.
	if res.P99Spread() <= res.MeanSpread() {
		t.Errorf("p99 spread %.2fx not above mean spread %.2fx", res.P99Spread(), res.MeanSpread())
	}
}

func TestTabS5EnduranceShape(t *testing.T) {
	res := TabS5Endurance(Quick, 42)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var fifo, greedy TabS5Row
	for _, row := range res.Rows {
		if row.BadBlocks == 0 {
			t.Errorf("%v: never wore out", row.Policy)
		}
		if row.HostMBWritten <= 0 || row.WAF <= 0 {
			t.Errorf("%v: empty row %+v", row.Policy, row)
		}
		switch {
		case row.Policy == ftl.GCFIFO:
			fifo = row
		case row.Policy == ftl.GCGreedy && !row.WearLeveling:
			greedy = row
		}
	}
	// FIFO wear-levels perfectly and so dies en masse when the limit hits;
	// greedy concentrates wear and loses single blocks early. The cliff
	// (many simultaneous bad blocks) is the FIFO signature.
	if fifo.BadBlocks <= greedy.BadBlocks*3 {
		t.Errorf("FIFO bad-block cliff absent: fifo=%d greedy=%d", fifo.BadBlocks, greedy.BadBlocks)
	}
}

func TestTabS6ProportionalityShape(t *testing.T) {
	res := TabS6Proportionality(Quick, 42)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	shared, rr := res.Rows[0], res.Rows[1]
	if shared.Completed == 0 || rr.Completed == 0 {
		t.Fatal("light tenant starved entirely")
	}
	// Per-tenant queueing must protect the light tenant's tail by a wide
	// margin — the I/O-proportionality motivation the paper cites.
	if rr.P99*4 >= shared.P99 {
		t.Errorf("isolation too weak: shared p99=%dµs, per-tenant p99=%dµs",
			shared.P99/1000, rr.P99/1000)
	}
}

func TestTabS7PersonalitiesShape(t *testing.T) {
	res := TabS7Personalities(Quick, 42)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (2 devices x 3 workloads)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ExtfsOps <= 0 || row.LogfsOps <= 0 || row.Ratio <= 0 {
			t.Errorf("%s/%s: empty cell %+v", row.Device, row.Workload, row)
		}
	}
	lo, hi := res.RatioRange()
	// The point: the same aged FS pair ranks differently per workload.
	if hi/lo < 1.5 {
		t.Errorf("ratio range %.2f..%.2f too flat across workloads", lo, hi)
	}
}

func TestTabS8MountShape(t *testing.T) {
	res := TabS8MountLatency(Quick, 42)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].EagerMS <= res.Rows[i-1].EagerMS {
			t.Errorf("eager mount not growing with capacity: %+v", res.Rows)
		}
		// On-demand stays flat (within noise).
		if res.Rows[i].OnDemandMS > res.Rows[0].OnDemandMS*1.5 {
			t.Errorf("on-demand mount grew with capacity: %+v", res.Rows)
		}
	}
	if last := res.Rows[len(res.Rows)-1]; last.Speedup() < 10 {
		t.Errorf("speedup at largest capacity = %.1fx, want >= 10x", last.Speedup())
	}
}
