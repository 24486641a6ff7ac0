package sim

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

// groupShard is one engine attached to a ShardGroup.
type groupShard struct {
	eng  *Engine
	base Time // shard-local clock minus group clock
	key  Time // group time of the next event; valid while pos >= 0
	pos  int  // slot in the calendar, -1 while the shard has no events
}

// ShardGroup advances several engines under one total order. Not safe for
// concurrent use: one goroutine owns the group and its engines.
type ShardGroup struct {
	shards []groupShard
	// cal is the calendar: shard indexes with pending events, a binary
	// min-heap on (key, index). Each shard's pos mirrors its slot.
	cal []int32
}

// NewShardGroup returns an empty group.
func NewShardGroup() *ShardGroup { return &ShardGroup{} }

// Len returns the number of attached shards.
func (g *ShardGroup) Len() int { return len(g.shards) }

// Attach adds a shard, enters it in the calendar and returns its index. base
// is the shard's local clock minus the group clock at attach time.
func (g *ShardGroup) Attach(eng *Engine, base Time) int {
	g.shards = append(g.shards, groupShard{eng: eng, base: base, pos: -1})
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
