// Package hostif models the NVMe-style multi-queue host interface in front
// of a device: submission queues with bounded depth, round-robin or
// weighted arbitration, and a bounded number of commands outstanding at the
// device. MQSim — the simulator the paper's §2.1 experiment calibrates
// against — exists precisely because this layer changes performance
// behaviour; the paper also cites I/O-proportionality work ([15]) that
// lives entirely here.
package hostif

import (
	"errors"
	"fmt"

	"ssdtp/internal/obs"
	"ssdtp/internal/sim"
	"ssdtp/internal/ssd"
	"ssdtp/internal/stats"
)

// OpKind is a submitted command type.
type OpKind int

// Command kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpTrim
	OpFlush
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	case OpFlush:
		return "flush"
	default:
		return "?"
	}
}

// Request is one queued command. Done (optional) fires at completion with
// the command's total latency (queueing + device).
type Request struct {
	Kind OpKind
	Off  int64
	Len  int64
	Done func(latency sim.Time)
}

// Arbitration selects how the controller picks among submission queues.
type Arbitration int

// Arbitration policies.
const (
	// RoundRobin services queues in rotation, one command per turn.
	RoundRobin Arbitration = iota
	// Weighted services queues in proportion to their weights (NVMe WRR).
	Weighted
)

// Config parameterizes a Controller.
type Config struct {
	// Arbitration policy (default RoundRobin).
	Arbitration Arbitration
	// MaxOutstanding bounds commands concurrently issued to the device
	// (the device-side queue depth; default 32).
	MaxOutstanding int
}

// ErrQueueFull is returned when a submission queue is at capacity.
var ErrQueueFull = errors.New("hostif: submission queue full")

// pendingReq pairs a queued request with its submission time, the trace span
// that covers it from submission to completion, and its latency-attribution
// record (begun in the host-queue phase at submit; nil with tracing off).
type pendingReq struct {
	req    Request
	submit sim.Time
	sp     obs.Span
	attr   *obs.ReqAttr
}

// Queue is one submission/completion queue pair.
type Queue struct {
	id      int
	depth   int
	weight  int
	pending []pendingReq
	// credit implements weighted arbitration.
	credit int

	// Latency collects per-command completion latencies.
	Latency *stats.LatencyRecorder
	// Completed counts finished commands.
	Completed int64
}

// ID returns the queue identifier.
func (q *Queue) ID() int { return q.id }

// Backlog returns commands waiting in the queue (not yet at the device).
func (q *Queue) Backlog() int { return len(q.pending) }

// Controller arbitrates submission queues onto one device.
type Controller struct {
	dev    *ssd.Device
	cfg    Config
	queues []*Queue
	tr     *obs.Tracer   // the device's tracer; nil when tracing is off
	prof   *obs.Profiler // its latency profiler; nil when tracing is off

	inflight int
	rrNext   int

	// cmdFree recycles issuedCmd descriptors (see issue).
	cmdFree *issuedCmd
}

// issuedCmd is one command in flight at the device: a pooled descriptor
// whose completion callback is built once (pool growth only) and handed to
// the device's async entry points, so steady-state issue allocates nothing.
// fire recycles the descriptor before running the caller's Done, mirroring
// the descriptor-ownership rules of the layers below (DESIGN.md §13).
type issuedCmd struct {
	c      *Controller
	q      *Queue
	submit sim.Time
	sp     obs.Span
	done   func(latency sim.Time)
	fire   func()
	next   *issuedCmd
}

func (c *Controller) newCmd(q *Queue, pr pendingReq) *issuedCmd {
	ic := c.cmdFree
	if ic == nil {
		ic = &issuedCmd{c: c}
		ic.fire = func() {
			c := ic.c
			c.inflight--
			lat := c.dev.Engine().Now() - ic.submit
			q, sp, done := ic.q, ic.sp, ic.done
			c.releaseCmd(ic)
			q.Latency.Record(lat)
			q.Completed++
			sp.End()
			if done != nil {
				done(lat)
			}
			c.pump()
		}
	} else {
		c.cmdFree = ic.next
		ic.next = nil
	}
	ic.q = q
	ic.submit = pr.submit
	ic.sp = pr.sp
	ic.done = pr.req.Done
	return ic
}

func (c *Controller) releaseCmd(ic *issuedCmd) {
	ic.q = nil
	ic.sp = obs.Span{}
	ic.done = nil
	ic.next = c.cmdFree
	c.cmdFree = ic
}

// NewController wraps dev, inheriting its tracer (if any): each submitted
// command gets a span spanning queueing plus device time, with an issue event
// marking when arbitration handed it to the device.
func NewController(dev *ssd.Device, cfg Config) *Controller {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 32
	}
	return &Controller{dev: dev, cfg: cfg, tr: dev.Tracer(), prof: dev.Tracer().Prof()}
}

// Device returns the underlying device.
func (c *Controller) Device() *ssd.Device { return c.dev }

// CreateQueue adds a submission queue with the given depth and arbitration
// weight (weight is ignored under RoundRobin; minimum 1).
func (c *Controller) CreateQueue(depth, weight int) *Queue {
	if depth <= 0 {
		depth = 64
	}
	if weight <= 0 {
		weight = 1
	}
	// pending is pre-sized to depth: Submit rejects past depth, so the ring
	// never reallocates once created.
	q := &Queue{
		id:      len(c.queues),
		depth:   depth,
		weight:  weight,
		pending: make([]pendingReq, 0, depth),
		Latency: stats.NewLatencyRecorder(),
	}
	c.queues = append(c.queues, q)
	return q
}

// Submit enqueues a command; it returns ErrQueueFull when the queue is at
// depth. The command issues to the device when arbitration selects it.
func (c *Controller) Submit(q *Queue, req Request) error {
	if len(q.pending) >= q.depth {
		return ErrQueueFull
	}
	req.Off, req.Len = c.clamp(req.Off, req.Len)
	var sp obs.Span
	if c.tr.Enabled() {
		sp = c.tr.Begin("hostif.cmd",
			obs.Int("queue", int64(q.id)),
			obs.Str("op", req.Kind.String()),
			obs.Int("off", req.Off),
			obs.Int("len", req.Len))
	}
	q.pending = append(q.pending, pendingReq{
		req:    req,
		submit: c.dev.Engine().Now(),
		sp:     sp,
		attr:   c.prof.BeginReq(obs.PhaseHostQueue),
	})
	c.pump()
	return nil
}

// pump issues commands while device slots and pending work remain.
func (c *Controller) pump() {
	for c.inflight < c.cfg.MaxOutstanding {
		q := c.pick()
		if q == nil {
			return
		}
		pr := q.pending[0]
		copy(q.pending, q.pending[1:])
		q.pending = q.pending[:len(q.pending)-1]
		c.issue(q, pr)
	}
}

// pick selects the next queue with pending work per the arbitration policy.
func (c *Controller) pick() *Queue {
	n := len(c.queues)
	if n == 0 {
		return nil
	}
	switch c.cfg.Arbitration {
	case Weighted:
		// Replenish credits when all pending queues are dry.
		for pass := 0; pass < 2; pass++ {
			best := (*Queue)(nil)
			for i := 0; i < n; i++ {
				q := c.queues[(c.rrNext+i)%n]
				if len(q.pending) > 0 && q.credit > 0 {
					best = q
					c.rrNext = (q.id + 1) % n
					break
				}
			}
			if best != nil {
				best.credit--
				return best
			}
			// Refill and retry once.
			refilled := false
			for _, q := range c.queues {
				if len(q.pending) > 0 {
					q.credit = q.weight
					refilled = true
				}
			}
			if !refilled {
				return nil
			}
		}
		return nil
	default: // RoundRobin
		for i := 0; i < n; i++ {
			q := c.queues[(c.rrNext+i)%n]
			if len(q.pending) > 0 {
				c.rrNext = (q.id + 1) % n
				return q
			}
		}
		return nil
	}
}

// issue sends one command to the device.
func (c *Controller) issue(q *Queue, pr pendingReq) {
	req := pr.req
	c.inflight++
	if c.tr.Enabled() {
		pr.sp.Event("hostif.issue", obs.Int("inflight", int64(c.inflight)))
	}
	// Queueing ends here; the device adopts the record through the hand-off
	// slot (the *Async calls below are synchronous into submitIO).
	pr.attr.Mark(obs.PhaseDispatch)
	c.prof.SetHandoff(pr.attr)
	ic := c.newCmd(q, pr)
	var err error
	switch req.Kind {
	case OpRead:
		err = c.dev.ReadAsync(req.Off, nil, req.Len, ic.fire)
	case OpWrite:
		err = c.dev.WriteAsync(req.Off, nil, req.Len, ic.fire)
	case OpTrim:
		err = c.dev.TrimAsync(req.Off, req.Len, ic.fire)
	case OpFlush:
		err = c.dev.FlushAsync(ic.fire)
	default:
		panic(fmt.Sprintf("hostif: unknown op kind %d", req.Kind))
	}
	if err != nil {
		panic(fmt.Sprintf("hostif: issue %+v: %v", req, err))
	}
}

// clamp folds offsets into the device (defensive; callers normally stay in
// range).
func (c *Controller) clamp(off, n int64) (int64, int64) {
	size := c.dev.Size()
	sector := int64(c.dev.SectorSize())
	if n <= 0 {
		n = sector
	}
	if off < 0 {
		off = 0
	}
	if off > size || n > size-off { // not off+n > size: that wraps for a huge n
		off = 0
	}
	return off / sector * sector, n / sector * sector
}
