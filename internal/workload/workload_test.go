package workload

import (
	"math"
	"strings"
	"testing"

	"ssdtp/internal/blockdev"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

func testDev(t *testing.T) *ssd.Device {
	t.Helper()
	cfg := ssd.MQSimBase()
	cfg.Geometry.BlocksPerPlane = 16
	return ssd.NewDevice(sim.NewEngine(), cfg)
}

func TestSequentialWriteRun(t *testing.T) {
	dev := testDev(t)
	res := Run(dev, Spec{
		Name: "seq", Pattern: Sequential, RequestBytes: 16384, QueueDepth: 4,
	}, Options{MaxRequests: 100})
	if res.Requests != 100 {
		t.Fatalf("requests = %d, want 100", res.Requests)
	}
	if res.BytesWritten != 100*16384 {
		t.Errorf("bytes = %d", res.BytesWritten)
	}
	if res.Latency.Count() != 100 {
		t.Errorf("latency samples = %d", res.Latency.Count())
	}
	if res.IOPS() <= 0 || res.Duration <= 0 {
		t.Errorf("IOPS=%v duration=%v", res.IOPS(), res.Duration)
	}
}

func TestDurationBoundedRun(t *testing.T) {
	dev := testDev(t)
	res := Run(dev, Spec{
		Name: "u", Pattern: Uniform, RequestBytes: 4096, QueueDepth: 2, Seed: 3,
	}, Options{Duration: 50 * sim.Millisecond})
	if res.Requests == 0 {
		t.Fatal("no requests completed in 50ms")
	}
	// Duration may exceed the bound slightly (draining in-flight requests).
	if res.Duration < 50*sim.Millisecond {
		t.Errorf("run shorter than bound: %d", res.Duration)
	}
}

func TestSequentialWraps(t *testing.T) {
	dev := testDev(t)
	// More requests than the section holds: must wrap, not error. Section
	// is 10 requests long; overwrite it 5 times.
	res := Run(dev, Spec{
		Name: "wrap", Pattern: Sequential, RequestBytes: 16384,
		Offset: 0, Length: 10 * 16384,
	}, Options{MaxRequests: 50})
	if res.Requests != 50 {
		t.Fatalf("requests = %d", res.Requests)
	}
}

func TestHotspotSkew(t *testing.T) {
	dev := testDev(t)
	// Track request offsets via a custom run: use the generator's RNG
	// behaviour indirectly by checking device write distribution through
	// FTL counters is not feasible; instead run hotspot on a section and
	// verify cache-hit rate is much higher than uniform (hot set fits in
	// cache).
	hot := Run(dev, Spec{
		Name: "hot", Pattern: Hotspot, RequestBytes: 4096, Seed: 7,
		Length: 8 << 20,
	}, Options{MaxRequests: 2000})
	hotHits := dev.FTL().Counters().CacheHits

	dev2 := testDev(t)
	uni := Run(dev2, Spec{
		Name: "uni", Pattern: Uniform, RequestBytes: 4096, Seed: 7,
		Length: 8 << 20,
	}, Options{MaxRequests: 2000})
	uniHits := dev2.FTL().Counters().CacheHits

	if hot.Requests != 2000 || uni.Requests != 2000 {
		t.Fatalf("requests: hot=%d uni=%d", hot.Requests, uni.Requests)
	}
	if hotHits <= uniHits {
		t.Errorf("hotspot cache hits (%d) not above uniform (%d)", hotHits, uniHits)
	}
}

func TestReadMix(t *testing.T) {
	dev := testDev(t)
	// Prime some data, then run a 50% read mix.
	Run(dev, Spec{Name: "prime", Pattern: Sequential, RequestBytes: 16384},
		Options{MaxRequests: 64})
	res := Run(dev, Spec{
		Name: "mix", Pattern: Uniform, RequestBytes: 4096,
		ReadFrac: 0.5, Seed: 11, Length: 1 << 20,
	}, Options{MaxRequests: 400})
	if res.BytesRead == 0 || res.BytesWritten == 0 {
		t.Errorf("mix imbalance: read=%d written=%d", res.BytesRead, res.BytesWritten)
	}
}

func TestSyncEvery(t *testing.T) {
	dev := testDev(t)
	res := Run(dev, Spec{
		Name: "sync", Pattern: Sequential, RequestBytes: 4096, SyncEvery: 1,
	}, Options{MaxRequests: 20})
	if res.Requests != 20 {
		t.Fatalf("requests = %d", res.Requests)
	}
	// Every request was followed by a flush: data pages programmed must be
	// at least the request count (each 4KB request forces out a padded
	// page).
	if got := dev.FTL().Counters().DataPagesProgrammed; got < 20 {
		t.Errorf("DataPagesProgrammed = %d, want >= 20", got)
	}
}

func TestConcurrentWorkloadsSeparateSections(t *testing.T) {
	dev := testDev(t)
	size := dev.Size()
	third := (size / 3) / 4096 * 4096
	specs := []Spec{
		{Name: "a", Pattern: Uniform, RequestBytes: 4096, Offset: 0, Length: third, Seed: 1},
		{Name: "b", Pattern: Hotspot, RequestBytes: 4096, Offset: third, Length: third, Seed: 2},
		{Name: "c", Pattern: Uniform, RequestBytes: 16384, Offset: 2 * third, Length: third, Seed: 3},
	}
	results := RunConcurrent(dev, specs, Options{Duration: 20 * sim.Millisecond})
	for _, r := range results {
		if r.Requests == 0 {
			t.Errorf("workload %s made no progress", r.Name)
		}
	}
}

func TestResultString(t *testing.T) {
	dev := testDev(t)
	res := Run(dev, Spec{Name: "s", Pattern: Sequential, RequestBytes: 4096},
		Options{MaxRequests: 5})
	if s := res.String(); len(s) == 0 {
		t.Error("empty result string")
	}
}

func TestUnboundedRunPanics(t *testing.T) {
	dev := testDev(t)
	defer func() {
		if recover() == nil {
			t.Error("unbounded Options did not panic")
		}
	}()
	Run(dev, Spec{Name: "x", Pattern: Uniform, RequestBytes: 4096}, Options{})
}

func TestReplayTrace(t *testing.T) {
	// Record a small FS-style trace via the tracer, then replay it on a
	// fresh device.
	trace := []blockdev.Op{
		{Kind: blockdev.OpWrite, Off: 0, Len: 65536},
		{Kind: blockdev.OpWrite, Off: 65536, Len: 16384},
		{Kind: blockdev.OpFlush},
		{Kind: blockdev.OpRead, Off: 0, Len: 65536},
		{Kind: blockdev.OpTrim, Off: 65536, Len: 16384},
	}
	dev := testDev(t)
	res, err := Replay(dev, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 5 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.BytesWritten != 65536+16384 || res.BytesRead != 65536 {
		t.Errorf("bytes = w%d r%d", res.BytesWritten, res.BytesRead)
	}
	if res.Latency.Count() != 5 || res.Duration <= 0 {
		t.Errorf("latency samples = %d, dur = %d", res.Latency.Count(), res.Duration)
	}
}

func TestReplayClampsOversizedOffsets(t *testing.T) {
	dev := testDev(t)
	trace := []blockdev.Op{
		{Kind: blockdev.OpWrite, Off: dev.Size() * 4, Len: 4096},
		{Kind: blockdev.OpRead, Off: dev.Size() * 7, Len: 4096},
		{Kind: blockdev.OpWrite, Off: math.MaxInt64 &^ 4095, Len: 8192}, // off+len wraps negative
	}
	res, err := Replay(dev, trace) // must not panic
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3 {
		t.Fatalf("requests = %d", res.Requests)
	}
}

// TestReplaySkipsUnplayableOps pins the oversized-op fix: an op whose length
// exceeds the whole device used to fold to offset 0 but still issue the full
// length, panicking deep inside the device. Replay must skip it (counted in
// SkippedOps), play the rest, and never panic.
func TestReplaySkipsUnplayableOps(t *testing.T) {
	dev := testDev(t)
	trace := []blockdev.Op{
		{Kind: blockdev.OpWrite, Off: 0, Len: dev.Size() * 2}, // longer than the device
		{Kind: blockdev.OpWrite, Off: 0, Len: 0},              // zero length
		{Kind: blockdev.OpRead, Off: 4096, Len: -4096},        // negative length
		{Kind: blockdev.OpWrite, Off: 123, Len: 4096},         // misaligned offset
		{Kind: blockdev.OpWrite, Off: 0, Len: 4096},           // playable
		{Kind: blockdev.OpFlush},                              // playable
	}
	res, err := Replay(dev, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedOps != 4 {
		t.Errorf("SkippedOps = %d, want 4", res.SkippedOps)
	}
	if res.Requests != 2 {
		t.Errorf("requests = %d, want 2", res.Requests)
	}
}

// TestHotspotTinySection pins the degenerate-split fix: a section holding a
// single request makes the hot region cover everything (hot == reqs), and the
// cold branch used to call rng.Int63n(0) and panic.
func TestHotspotTinySection(t *testing.T) {
	dev := testDev(t)
	res := Run(dev, Spec{
		Name: "tiny", Pattern: Hotspot, RequestBytes: 4096,
		Offset: 0, Length: 4096, Seed: 5,
	}, Options{MaxRequests: 50})
	if res.Requests != 50 {
		t.Fatalf("requests = %d, want 50", res.Requests)
	}
}

// TestHotspotFullHotFrac covers the other degenerate split: HotFrac ~ 1
// makes every request hot even in a large section.
func TestHotspotFullHotFrac(t *testing.T) {
	dev := testDev(t)
	res := Run(dev, Spec{
		Name: "allhot", Pattern: Hotspot, RequestBytes: 4096,
		HotFrac: 1.0, HotAccessFrac: 0.8, Length: 1 << 20, Seed: 5,
	}, Options{MaxRequests: 50})
	if res.Requests != 50 {
		t.Fatalf("requests = %d, want 50", res.Requests)
	}
}

func TestBurstOpenLoop(t *testing.T) {
	dev := testDev(t)
	res := Run(dev, Spec{
		Name: "bursty", Pattern: Uniform, RequestBytes: 4096,
		Interval: 100 * sim.Microsecond, Burst: 8, Seed: 2,
	}, Options{Duration: 10 * sim.Millisecond})
	if res.Requests == 0 {
		t.Fatal("no requests")
	}
	// Average rate preserved: ~10ms/100µs = 100 requests (bursts of 8).
	if res.Requests < 60 || res.Requests > 140 {
		t.Errorf("requests = %d, want ~100", res.Requests)
	}
}

func TestTimelineBuckets(t *testing.T) {
	dev := testDev(t)
	res := Run(dev, Spec{
		Name: "tl", Pattern: Sequential, RequestBytes: 4096,
		Interval: 100 * sim.Microsecond,
	}, Options{Duration: 10 * sim.Millisecond, TimelineInterval: sim.Millisecond})
	if len(res.Timeline) < 9 || len(res.Timeline) > 12 {
		t.Fatalf("timeline buckets = %d, want ~10", len(res.Timeline))
	}
	var sum int64
	for _, n := range res.Timeline {
		sum += n
	}
	if sum != res.Requests {
		t.Errorf("timeline sum %d != requests %d", sum, res.Requests)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	ops := []blockdev.Op{
		{Kind: blockdev.OpWrite, Off: 4096, Len: 8192},
		{Kind: blockdev.OpFlush},
		{Kind: blockdev.OpRead, Off: 0, Len: 4096},
		{Kind: blockdev.OpTrim, Off: 8192, Len: 4096},
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("ops = %d, want %d", len(back), len(ops))
	}
	for i := range ops {
		if back[i] != ops[i] {
			t.Errorf("op %d = %+v, want %+v", i, back[i], ops[i])
		}
	}
}

func TestParseTraceCommentsAndErrors(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader("# comment\n\nW 0 4096\n"))
	if err != nil || len(ops) != 1 {
		t.Fatalf("ops=%v err=%v", ops, err)
	}
	if _, err := ParseTrace(strings.NewReader("X 0 1\n")); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := ParseTrace(strings.NewReader("W 5\n")); err == nil {
		t.Error("short line accepted")
	}
}

// TestParseTraceValidation pins the stricter parser: negative offsets,
// non-positive lengths, F lines with trailing fields, and over-long lines
// must be rejected with the offending line number in the error, while long
// comment lines (past bufio.Scanner's old 64 KiB default) must parse.
func TestParseTraceValidation(t *testing.T) {
	reject := []struct {
		name, input, wantLine string
	}{
		{"negative offset", "W 0 4096\nR -1 4096\n", "line 2"},
		{"zero length", "W 0 0\n", "line 1"},
		{"negative length", "W 0 -4096\n", "line 1"},
		{"flush with fields", "F extra\n", "line 1"},
		{"trailing fields", "W 0 4096 9\n", "line 1"},
		{"non-integer offset", "W x 4096\n", "line 1"},
		{"non-integer length", "W 0 4k\n", "line 1"},
		{"overflow", "W 0 99999999999999999999\n", "line 1"},
	}
	for _, tc := range reject {
		_, err := ParseTrace(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.input)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantLine) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantLine)
		}
	}

	// A comment line longer than the old 64 KiB scanner cap must parse now.
	long := "# " + strings.Repeat("x", 100*1024) + "\nW 0 4096\n"
	ops, err := ParseTrace(strings.NewReader(long))
	if err != nil || len(ops) != 1 {
		t.Errorf("long comment line: ops=%d err=%v", len(ops), err)
	}

	// A line beyond maxTraceLine still errors, but with a line number.
	huge := "W 0 4096\n# " + strings.Repeat("y", maxTraceLine+1) + "\n"
	if _, err := ParseTrace(strings.NewReader(huge)); err == nil {
		t.Error("over-limit line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("over-limit error %q does not name line 2", err)
	}
}

func TestZeroDurationAccessors(t *testing.T) {
	r := Result{}
	if r.IOPS() != 0 || r.ThroughputMBps() != 0 {
		t.Error("zero-duration result should report 0 rates")
	}
}

// TestResultRatesZeroDuration pins the zero/negative-duration guards: rate
// accessors must return 0 instead of dividing by zero (a Result from a
// workload that completed no simulated time, e.g. MaxRequests=0).
func TestResultRatesZeroDuration(t *testing.T) {
	r := Result{Requests: 100, BytesWritten: 1 << 20, BytesRead: 1 << 20}
	if got := r.IOPS(); got != 0 {
		t.Fatalf("IOPS with zero duration = %v, want 0", got)
	}
	if got := r.ThroughputMBps(); got != 0 {
		t.Fatalf("ThroughputMBps with zero duration = %v, want 0", got)
	}
	r.Duration = -sim.Second
	if got, got2 := r.IOPS(), r.ThroughputMBps(); got != 0 || got2 != 0 {
		t.Fatalf("rates with negative duration = %v, %v, want 0, 0", got, got2)
	}
	r.Duration = sim.Second
	if got := r.IOPS(); got != 100 {
		t.Fatalf("IOPS = %v, want 100", got)
	}
	if got := r.ThroughputMBps(); got != float64(2<<20)/1e6 {
		t.Fatalf("ThroughputMBps = %v, want %v", got, float64(2<<20)/1e6)
	}
}
