package sim

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Sharded event execution (DESIGN.md §11). A ShardGroup coordinates several
// engines ("shards") as one simulation: each shard keeps its own intrusive
// heap and clock, offset from a shared group clock by a fixed base, and the
// group defines a total order over all events — (group time, shard index,
// shard-local sequence). Serial stepping (Step/RunUntil) fires events in
// exactly that order.
//
// The group finds the next shard through a calendar: a binary min-heap of
// the shards with pending events, keyed by (group time of next event, shard
// index), with each shard's heap slot recorded so one shard is re-keyed in
// O(log N). The group re-keys the shards it steps itself. A shard engine
// that changes any other way — an event scheduled or canceled from outside
// the group, the clock advanced by the owner, a rebase — must be re-keyed
// with Touch before the next group call; a stale key is a caller bug.
//
// The parallel path is conservative-lookahead PDES: each shard declares,
// through a busy predicate, whether its next event may perform an
// *externally visible* action (one whose effects escape the shard's private
// object graph — in this repository, a host completion callback). A busy
// shard's next event time is a lower bound on when it can next act visibly;
// an idle one is unbounded. The group horizon is the minimum of the busy
// shards' next event times and the caller's own bound; events strictly
// before the horizon are, by construction, internal to their shard, so
// AdvanceBefore may fire them concurrently on worker goroutines without
// perturbing the total order any outside observer can see. The serial
// residue — everything at or after the horizon — still steps in the fixed
// (time, shard, seq) order, so the merged run is byte-identical to the
// all-serial one (pinned by the property tests in shard_test.go).

// groupShard is one engine attached to a ShardGroup.
type groupShard struct {
	eng  *Engine
	base Time // shard-local clock minus group clock
	// busy reports whether the shard's next event may be externally
	// visible; nil means never (the shard is always unbounded).
	busy func() bool
	key  Time // group time of the next event; valid while pos >= 0
	pos  int  // slot in the calendar, -1 while the shard has no events
}

// ShardGroup advances several engines under one total order, with optional
// conservative-horizon parallel windows. Not safe for concurrent use itself:
// one goroutine owns the group; AdvanceBefore manages its own workers.
type ShardGroup struct {
	workers int
	shards  []groupShard
	// cal is the calendar: shard indexes with pending events, a binary
	// min-heap on (key, index). Each shard's pos mirrors its slot.
	cal []int32

	// Scratch reused across calls: walk holds calendar slots for Horizon's
	// frontier and AdvanceBefore's candidate walk; cands the window's
	// candidate shards; fired[i] shard i's batch times in the current
	// window; merged the window's returned batch times.
	walk   []int32
	cands  []int32
	fired  [][]Time
	merged []Time

	// Window state shared with the drain workers during AdvanceBefore.
	h        Time
	bounded  bool
	nextCand atomic.Int64
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any
}

// NewShardGroup returns an empty group. workers bounds the goroutines a
// parallel window uses; <= 0 means GOMAXPROCS.
func NewShardGroup(workers int) *ShardGroup {
	g := &ShardGroup{}
	g.SetWorkers(workers)
	return g
}

// SetWorkers adjusts the parallel-window worker bound (<= 0: GOMAXPROCS).
func (g *ShardGroup) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	g.workers = n
}

// Workers returns the current worker bound.
func (g *ShardGroup) Workers() int { return g.workers }

// Len returns the number of attached shards.
func (g *ShardGroup) Len() int { return len(g.shards) }

// Attach adds a shard, enters it in the calendar and returns its index. base
// is the shard's local clock minus the group clock at attach time; busy may
// be nil for a shard that is never externally visible (always unbounded).
func (g *ShardGroup) Attach(eng *Engine, base Time, busy func() bool) int {
	g.shards = append(g.shards, groupShard{eng: eng, base: base, busy: busy, pos: -1})
	g.fired = append(g.fired, nil)
	i := len(g.shards) - 1
	g.Touch(i)
	return i
}

// SetBase re-declares shard i's clock offset and re-keys it. Needed after
// rebasing an empty shard engine (snapshot restore moves the local clock
// without firing events); the caller owns keeping base consistent with the
// engine's clock.
func (g *ShardGroup) SetBase(i int, base Time) {
	g.shards[i].base = base
	g.Touch(i)
}

// Touch re-keys shard i from its engine's next event. Call it after the
// shard's engine changed outside the group (see the calendar contract
// above); it costs O(log N), and nothing when the key is unchanged.
func (g *ShardGroup) Touch(i int) {
	s := &g.shards[i]
	t, ok := s.eng.NextEventTime()
	switch {
	case !ok:
		if s.pos >= 0 {
			g.calRemove(s.pos)
		}
	case s.pos < 0:
		s.key = t - s.base
		s.pos = len(g.cal)
		g.cal = append(g.cal, int32(i))
		g.calUp(s.pos)
	case t-s.base < s.key:
		s.key = t - s.base
		g.calUp(s.pos)
	case t-s.base > s.key:
		s.key = t - s.base
		g.calDown(s.pos)
	}
}

// Next returns the shard holding the earliest pending event — the minimum
// (group time, shard index) — and that event's group time, or ok=false when
// every shard is idle.
func (g *ShardGroup) Next() (shard int, t Time, ok bool) {
	if len(g.cal) == 0 {
		return -1, 0, false
	}
	i := g.cal[0]
	return int(i), g.shards[i].key, true
}

// NextTime returns the group time of the earliest pending event across all
// shards, or (0, false) when every shard is idle.
func (g *ShardGroup) NextTime() (Time, bool) {
	_, t, ok := g.Next()
	return t, ok
}

// Step fires the globally earliest event batch: the shard holding the
// minimum (group time, shard index) advances through every event at that
// instant (including ones those events schedule for the same instant), in
// its own (time, seq) order, and is re-keyed. Reports whether anything
// fired.
func (g *ShardGroup) Step() bool {
	if len(g.cal) == 0 {
		return false
	}
	i := int(g.cal[0])
	s := &g.shards[i]
	s.eng.RunUntil(s.base + s.key)
	g.Touch(i)
	return true
}

// RunUntil fires every event with group time <= t, in (time, shard, seq)
// order. Shard clocks advance only to their fired events, never to t itself;
// callers that need a shard synchronized to a later instant advance it
// directly (internal/fleet's syncDrive) and Touch it.
func (g *ShardGroup) RunUntil(t Time) {
	for len(g.cal) > 0 && g.shards[g.cal[0]].key <= t {
		g.Step()
	}
}

// Horizon combines the busy shards' next event times with the caller's own
// bound into the group horizon: no shard can act externally visibly strictly
// before the returned time. ok=false means unbounded — no shard with pending
// events is busy and the caller's limit is unbounded (bounded=false), so any
// amount of lookahead is safe.
//
// The calendar is walked best-first, so the first busy shard reached holds
// the answer; the walk stops early at the first key at or above limit.
func (g *ShardGroup) Horizon(limit Time, bounded bool) (Time, bool) {
	if len(g.cal) == 0 {
		return limit, bounded
	}
	// frontier is a min-heap of calendar slots, ordered like the calendar.
	frontier := append(g.walk[:0], 0)
	h, ok := limit, bounded
	for len(frontier) > 0 {
		slot := frontier[0]
		frontier = g.frontierPop(frontier)
		s := &g.shards[g.cal[slot]]
		if bounded && s.key >= limit {
			break
		}
		if s.busy != nil && s.busy() {
			h, ok = s.key, true
			break
		}
		for c := 2*slot + 1; c <= 2*slot+2 && int(c) < len(g.cal); c++ {
			frontier = g.frontierPush(frontier, c)
		}
	}
	g.walk = frontier[:0]
	return h, ok
}

// AdvanceBefore fires, concurrently across shards, every event with group
// time strictly before h (every event, when bounded=false). The caller must
// have established — normally via Horizon — that those events are internal
// to their shards; under that precondition the per-shard outcome is
// identical to serial stepping, because each shard fires its own events in
// its own order and no fired event can observe another shard. The calling
// goroutine drains candidates itself beside up to workers-1 helpers.
//
// The return value is the ascending, de-duplicated list of group times at
// which batches fired — exactly the instants serial stepping would have
// visited for the same events. Callers replaying a serial schedule
// (internal/fleet's pump) use it to reproduce their per-instant bookkeeping.
// It is group-owned scratch, valid until the next AdvanceBefore call.
// Returns nil when nothing fired. A panic on any worker (model bugs panic in
// this repository) is re-raised on the caller after all workers stop.
func (g *ShardGroup) AdvanceBefore(h Time, bounded bool) []Time {
	// Collect the shards with work in the window: a pruned walk of the
	// calendar visits only the candidates and their frontier.
	cands := g.cands[:0]
	stack := g.walk[:0]
	if len(g.cal) > 0 {
		stack = append(stack, 0)
	}
	for len(stack) > 0 {
		slot := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i := g.cal[slot]
		if bounded && g.shards[i].key >= h {
			continue
		}
		cands = append(cands, i)
		for c := 2*slot + 1; c <= 2*slot+2 && int(c) < len(g.cal); c++ {
			stack = append(stack, c)
		}
	}
	g.cands, g.walk = cands, stack[:0]
	if len(cands) == 0 {
		return nil
	}

	g.h, g.bounded = h, bounded
	if workers := min(g.workers, len(cands)); workers <= 1 {
		for _, i := range cands {
			g.drain(i)
		}
	} else {
		g.nextCand.Store(0)
		g.panicked = nil
		g.wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go g.helpDrain()
		}
		g.drainShare()
		g.wg.Wait()
		if r := g.panicked; r != nil {
			g.panicked = nil
			panic(r)
		}
	}

	// Re-key the drained shards, then merge their batch times into one
	// ascending, distinct list.
	merged := g.merged[:0]
	for _, i := range cands {
		g.Touch(int(i))
		merged = append(merged, g.fired[i]...)
	}
	g.merged = merged
	if len(merged) == 0 {
		return nil
	}
	slices.Sort(merged)
	return slices.Compact(merged)
}

// drain fires shard i's events before the window bound, recording the group
// time of each batch.
func (g *ShardGroup) drain(i int32) {
	s := &g.shards[i]
	times := g.fired[i][:0]
	for {
		t, ok := s.eng.NextEventTime()
		if !ok || (g.bounded && t >= s.base+g.h) {
			break
		}
		// RunUntil fires every event at t, including same-instant events
		// the batch schedules, so each recorded time is one batch.
		s.eng.RunUntil(t)
		times = append(times, t-s.base)
	}
	g.fired[i] = times
}

// drainShare claims and drains window candidates until none are left,
// recording the first panic instead of unwinding past the other workers.
func (g *ShardGroup) drainShare() {
	defer g.recoverDrain()
	for {
		n := int(g.nextCand.Add(1)) - 1
		if n >= len(g.cands) {
			return
		}
		g.drain(g.cands[n])
	}
}

// helpDrain is a helper goroutine's body in a parallel window.
func (g *ShardGroup) helpDrain() {
	defer g.wg.Done()
	g.drainShare()
}

// recoverDrain records a drain worker's panic for AdvanceBefore to re-raise.
func (g *ShardGroup) recoverDrain() {
	if r := recover(); r != nil {
		g.panicMu.Lock()
		if g.panicked == nil {
			g.panicked = r
		}
		g.panicMu.Unlock()
	}
}

// calLess orders calendar entries by (key, shard index).
func (g *ShardGroup) calLess(a, b int32) bool {
	ka, kb := g.shards[a].key, g.shards[b].key
	return ka < kb || (ka == kb && a < b)
}

// calSet places shard i at calendar slot p.
func (g *ShardGroup) calSet(p int, i int32) {
	g.cal[p] = i
	g.shards[i].pos = p
}

// calUp moves the entry at slot p toward the root until its parent is
// smaller.
func (g *ShardGroup) calUp(p int) {
	i := g.cal[p]
	for p > 0 {
		parent := (p - 1) / 2
		if !g.calLess(i, g.cal[parent]) {
			break
		}
		g.calSet(p, g.cal[parent])
		p = parent
	}
	g.calSet(p, i)
}

// calDown moves the entry at slot p away from the root until both children
// are larger.
func (g *ShardGroup) calDown(p int) {
	i := g.cal[p]
	n := len(g.cal)
	for {
		c := 2*p + 1
		if c >= n {
			break
		}
		if c+1 < n && g.calLess(g.cal[c+1], g.cal[c]) {
			c++
		}
		if !g.calLess(g.cal[c], i) {
			break
		}
		g.calSet(p, g.cal[c])
		p = c
	}
	g.calSet(p, i)
}

// calRemove deletes the entry at slot p; the last entry takes its place and
// moves whichever way restores the heap order.
func (g *ShardGroup) calRemove(p int) {
	g.shards[g.cal[p]].pos = -1
	last := len(g.cal) - 1
	moved := g.cal[last]
	g.cal = g.cal[:last]
	if p == last {
		return
	}
	g.calSet(p, moved)
	g.calUp(p)
	g.calDown(g.shards[moved].pos)
}

// frontierLess orders calendar slots by their entries' calendar order.
func (g *ShardGroup) frontierLess(a, b int32) bool { return g.calLess(g.cal[a], g.cal[b]) }

// frontierPush adds calendar slot c to the frontier heap f.
func (g *ShardGroup) frontierPush(f []int32, c int32) []int32 {
	f = append(f, c)
	for p := len(f) - 1; p > 0; {
		parent := (p - 1) / 2
		if !g.frontierLess(f[p], f[parent]) {
			break
		}
		f[p], f[parent] = f[parent], f[p]
		p = parent
	}
	return f
}

// frontierPop removes the frontier heap's minimum (f[0]).
func (g *ShardGroup) frontierPop(f []int32) []int32 {
	last := len(f) - 1
	f[0] = f[last]
	f = f[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(f) {
			break
		}
		if c+1 < len(f) && g.frontierLess(f[c+1], f[c]) {
			c++
		}
		if !g.frontierLess(f[c], f[p]) {
			break
		}
		f[p], f[c] = f[c], f[p]
		p = c
	}
	return f
}
