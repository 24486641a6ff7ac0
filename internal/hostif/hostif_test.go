package hostif

import (
	"math"
	"math/rand"
	"testing"

	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
)

func rig(t *testing.T, cfg Config) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	dcfg := ssd.MQSimBase()
	dcfg.Geometry.BlocksPerPlane = 16
	dev := ssd.NewDevice(eng, dcfg)
	return eng, NewController(dev, cfg)
}

func TestSubmitAndComplete(t *testing.T) {
	eng, c := rig(t, Config{})
	q := c.CreateQueue(8, 1)
	var lat sim.Time
	if err := c.Submit(q, Request{Kind: OpWrite, Off: 0, Len: 4096, Done: func(l sim.Time) { lat = l }}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if q.Completed != 1 || lat <= 0 {
		t.Fatalf("completed=%d lat=%d", q.Completed, lat)
	}
	if q.Latency.Count() != 1 {
		t.Errorf("latency samples = %d", q.Latency.Count())
	}
}

func TestQueueFull(t *testing.T) {
	_, c := rig(t, Config{MaxOutstanding: 1})
	q := c.CreateQueue(2, 1)
	// One command goes straight to the device slot; two more fill the
	// queue; the fourth must bounce.
	for i := 0; i < 3; i++ {
		if err := c.Submit(q, Request{Kind: OpWrite, Off: int64(i) * 4096, Len: 4096}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := c.Submit(q, Request{Kind: OpWrite, Off: 0, Len: 4096}); err != ErrQueueFull {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
}

func TestRoundRobinInterleavesQueues(t *testing.T) {
	eng, c := rig(t, Config{MaxOutstanding: 1})
	a := c.CreateQueue(32, 1)
	b := c.CreateQueue(32, 1)
	var order []int
	mk := func(q *Queue) Request {
		return Request{Kind: OpWrite, Off: 0, Len: 4096, Done: func(sim.Time) {
			order = append(order, q.ID())
		}}
	}
	// Preload both queues, then run: RR must alternate.
	for i := 0; i < 4; i++ {
		_ = c.Submit(a, mk(a))
		_ = c.Submit(b, mk(b))
	}
	eng.Run()
	if len(order) != 8 {
		t.Fatalf("completions = %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("round robin did not alternate: %v", order)
		}
	}
}

func TestWeightedArbitrationProportions(t *testing.T) {
	eng, c := rig(t, Config{Arbitration: Weighted, MaxOutstanding: 1})
	heavy := c.CreateQueue(256, 3)
	light := c.CreateQueue(256, 1)
	var order []int
	mk := func(q *Queue) Request {
		return Request{Kind: OpWrite, Off: 0, Len: 4096, Done: func(sim.Time) {
			order = append(order, q.ID())
		}}
	}
	for i := 0; i < 12; i++ {
		_ = c.Submit(heavy, mk(heavy))
	}
	for i := 0; i < 4; i++ {
		_ = c.Submit(light, mk(light))
	}
	eng.Run()
	// First 16 completions should show ~3:1 service.
	h, l := 0, 0
	for _, id := range order {
		if id == heavy.ID() {
			h++
		} else {
			l++
		}
	}
	if h != 12 || l != 4 {
		t.Fatalf("completions h=%d l=%d", h, l)
	}
	// In the first 8 services, heavy should get ~6.
	h8 := 0
	for _, id := range order[:8] {
		if id == heavy.ID() {
			h8++
		}
	}
	if h8 < 5 || h8 > 7 {
		t.Errorf("weighted service in first 8 = %d heavy, want ~6", h8)
	}
}

// The isolation story: a light tenant sharing one queue with a flooding
// tenant sees far worse tail latency than with its own queue under RR.
func TestQueueIsolationProtectsLightTenant(t *testing.T) {
	run := func(shared bool) sim.Time {
		eng, c := rig(t, Config{MaxOutstanding: 4})
		heavyQ := c.CreateQueue(512, 1)
		lightQ := heavyQ
		if !shared {
			lightQ = c.CreateQueue(64, 1)
		}
		rng := rand.New(rand.NewSource(9))
		size := c.Device().Size()
		// Flood 256 heavy writes, then submit light reads periodically.
		for i := 0; i < 256; i++ {
			_ = c.Submit(heavyQ, Request{Kind: OpWrite, Off: rng.Int63n(size/8192) * 8192, Len: 8192})
		}
		var worst sim.Time
		for i := 0; i < 16; i++ {
			delay := sim.Time(i) * 200 * sim.Microsecond
			eng.Schedule(delay, func() {
				_ = c.Submit(lightQ, Request{Kind: OpRead, Off: 0, Len: 4096, Done: func(l sim.Time) {
					if l > worst {
						worst = l
					}
				}})
			})
		}
		eng.Run()
		return worst
	}
	sharedWorst := run(true)
	isolatedWorst := run(false)
	if isolatedWorst*2 >= sharedWorst {
		t.Errorf("isolation did not help: shared=%dµs isolated=%dµs",
			sharedWorst/sim.Microsecond, isolatedWorst/sim.Microsecond)
	}
}

func TestTrimAndFlushThroughController(t *testing.T) {
	eng, c := rig(t, Config{})
	q := c.CreateQueue(8, 1)
	done := 0
	_ = c.Submit(q, Request{Kind: OpWrite, Off: 0, Len: 8192, Done: func(sim.Time) { done++ }})
	_ = c.Submit(q, Request{Kind: OpFlush, Done: func(sim.Time) { done++ }})
	_ = c.Submit(q, Request{Kind: OpTrim, Off: 0, Len: 8192, Done: func(sim.Time) { done++ }})
	eng.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
}

func TestClampFoldsOutOfRange(t *testing.T) {
	eng, c := rig(t, Config{})
	q := c.CreateQueue(8, 1)
	// Negative and oversized offsets fold into the device instead of
	// panicking the issue path.
	done := 0
	_ = c.Submit(q, Request{Kind: OpWrite, Off: -4096, Len: 4096, Done: func(sim.Time) { done++ }})
	_ = c.Submit(q, Request{Kind: OpWrite, Off: c.Device().Size() * 3, Len: 4096, Done: func(sim.Time) { done++ }})
	_ = c.Submit(q, Request{Kind: OpRead, Off: 0, Len: 0, Done: func(sim.Time) { done++ }}) // zero-length -> one sector
	eng.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	// A length so large that off+n wraps negative still folds the offset.
	last := c.Device().Size() - 4096
	if off, _ := c.clamp(last, math.MaxInt64&^4095); off != 0 {
		t.Errorf("clamp(%d, huge) kept offset %d, want it folded to 0", last, off)
	}
}

func TestDefaultQueueAndControllerParams(t *testing.T) {
	_, c := rig(t, Config{MaxOutstanding: -1})
	q := c.CreateQueue(-5, -2)
	if q.depth != 64 || q.weight != 1 {
		t.Errorf("defaults: depth=%d weight=%d", q.depth, q.weight)
	}
	if c.cfg.MaxOutstanding != 32 {
		t.Errorf("MaxOutstanding default = %d", c.cfg.MaxOutstanding)
	}
}
