package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// Property tests for ShardGroup: randomized schedule/cancel/rebase programs
// replayed against the retained sequential reference scheduler
// (refheap_test.go) extended to a multi-shard group, demanding identical
// firing order.

// refPeek pops lazily-canceled heads and returns the live head's time.
func refPeek(e *refEngine) (Time, bool) {
	for len(e.pq) > 0 && (e.pq[0].canceled || e.pq[0].fn == nil) {
		heap.Pop(&e.pq)
	}
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].time, true
}

// refGroup mirrors ShardGroup's total order — (group time, shard index,
// local seq) — over reference engines.
type refGroup struct {
	shards []*refEngine
	bases  []Time
}

func (g *refGroup) next() (Time, int, bool) {
	best := -1
	var bt Time
	for i, e := range g.shards {
		if t, ok := refPeek(e); ok {
			if gt := t - g.bases[i]; best < 0 || gt < bt {
				best, bt = i, gt
			}
		}
	}
	return bt, best, best >= 0
}

func (g *refGroup) step() bool {
	_, i, ok := g.next()
	if !ok {
		return false
	}
	e := g.shards[i]
	t, _ := refPeek(e)
	// Fire the whole same-instant batch, including children the batch
	// schedules at the same instant — matching ShardGroup.Step's RunUntil.
	for {
		pt, live := refPeek(e)
		if !live || pt != t {
			return true
		}
		e.step()
	}
}

func (g *refGroup) runUntil(t Time) {
	for {
		next, _, ok := g.next()
		if !ok || next > t {
			return
		}
		g.step()
	}
}

// fired is one log entry: which event fired, at what group time.
type fired struct {
	id int
	at Time
}

// shardState is the per-shard world a program's callbacks may touch. All of
// it is shard-private — including the rng that drives callback behavior,
// whose draw order is per-shard deterministic.
type shardState struct {
	rng     *rand.Rand
	log     []fired
	cancels []func()
	nextID  int
}

// backend abstracts the scheduler under test vs the reference. shard-local
// time bases are maintained identically on both sides, so equal delays mean
// equal group times.
type backend interface {
	schedule(shard int, delay Time, fn func()) (cancel func())
	localNow(shard int) Time
	pendingEmpty(shard int) bool
	rebase(shard int, delta Time)
	runUntil(t Time)
	drain()
}

// realBackend schedules, cancels and rebases on shard engines from outside
// the group between group calls, so under the calendar contract it Touches
// every shard on entry to runUntil and drain. Within them only the group
// steps shards, and it re-keys those itself.
type realBackend struct {
	engs  []*Engine
	group *ShardGroup
	bases []Time
}

func newRealBackend(nShards int) *realBackend {
	b := &realBackend{group: NewShardGroup()}
	for i := 0; i < nShards; i++ {
		e := NewEngine()
		b.engs = append(b.engs, e)
		b.bases = append(b.bases, 0)
		b.group.Attach(e, 0)
	}
	return b
}

func (b *realBackend) schedule(shard int, delay Time, fn func()) func() {
	ev := b.engs[shard].Schedule(delay, fn)
	return ev.Cancel
}
func (b *realBackend) localNow(shard int) Time     { return b.engs[shard].Now() }
func (b *realBackend) pendingEmpty(shard int) bool { return b.engs[shard].Pending() == 0 }
func (b *realBackend) rebase(shard int, delta Time) {
	e := b.engs[shard]
	e.Rebase(e.Now() + delta)
	b.bases[shard] += delta
	b.group.SetBase(shard, b.bases[shard])
}

// touchAll re-keys every shard after external schedules and cancels.
func (b *realBackend) touchAll() {
	for i := range b.engs {
		b.group.Touch(i)
	}
}

func (b *realBackend) runUntil(t Time) {
	b.touchAll()
	b.group.RunUntil(t)
}

func (b *realBackend) drain() {
	b.touchAll()
	for b.group.Step() {
	}
}

type refBackend struct {
	group *refGroup
}

func newRefBackend(nShards int) *refBackend {
	g := &refGroup{}
	for i := 0; i < nShards; i++ {
		g.shards = append(g.shards, &refEngine{})
		g.bases = append(g.bases, 0)
	}
	return &refBackend{group: g}
}

func (b *refBackend) schedule(shard int, delay Time, fn func()) func() {
	ev := b.group.shards[shard].schedule(delay, fn)
	return ev.cancel
}
func (b *refBackend) localNow(shard int) Time { return b.group.shards[shard].now }
func (b *refBackend) pendingEmpty(shard int) bool {
	_, ok := refPeek(b.group.shards[shard])
	return !ok
}
func (b *refBackend) rebase(shard int, delta Time) {
	b.group.shards[shard].now += delta
	b.group.bases[shard] += delta
}
func (b *refBackend) runUntil(t Time) { b.group.runUntil(t) }
func (b *refBackend) drain() {
	for b.group.step() {
	}
}

// program is the top-level script: a fixed op list both backends replay.
type progOp struct {
	kind  int // 0 schedule root, 1 cancel a root, 2 runUntil, 3 rebase
	shard int
	arg   Time
	pick  int
}

func genProgram(rng *rand.Rand) (nShards int, ops []progOp) {
	nShards = 1 + rng.Intn(4)
	n := 15 + rng.Intn(20)
	for i := 0; i < n; i++ {
		op := progOp{shard: rng.Intn(nShards), pick: rng.Int()}
		switch k := rng.Intn(10); {
		case k < 5: // schedule a root event
			op.kind = 0
			op.arg = Time(rng.Intn(500))
		case k < 6: // cancel a previously scheduled root
			op.kind = 1
		case k < 9: // advance group time
			op.kind = 2
			op.arg = Time(50 + rng.Intn(300))
		default: // rebase an idle shard forward
			op.kind = 3
			op.arg = Time(rng.Intn(200))
		}
		ops = append(ops, op)
	}
	return nShards, ops
}

// runProgram replays ops on b. Callback behavior draws from per-shard rngs
// seeded from seed, so every execution of the same program behaves
// identically regardless of backend.
func runProgram(b backend, seed int64, nShards int, ops []progOp) []*shardState {
	states := make([]*shardState, nShards)
	for i := range states {
		states[i] = &shardState{rng: rand.New(rand.NewSource(seed + int64(i)))}
	}

	// fire is the body of every event: log, maybe spawn same-shard children,
	// maybe cancel a same-shard event. All state is shard-private.
	var fire func(shard, id int, base func(int) Time)
	fire = func(shard, id int, base func(int) Time) {
		s := states[shard]
		s.log = append(s.log, fired{id: id, at: b.localNow(shard) - base(shard)})
		for s.rng.Intn(100) < 30 {
			cid := s.nextID
			s.nextID++
			s.cancels = append(s.cancels,
				b.schedule(shard, Time(s.rng.Intn(300)), func() { fire(shard, cid, base) }))
		}
		if s.rng.Intn(100) < 20 && len(s.cancels) > 0 {
			s.cancels[s.rng.Intn(len(s.cancels))]()
		}
	}

	base := func(shard int) Time {
		switch bk := b.(type) {
		case *realBackend:
			return bk.bases[shard]
		case *refBackend:
			return bk.group.bases[shard]
		}
		return 0
	}

	var groupTime Time
	for _, op := range ops {
		switch op.kind {
		case 0:
			s := states[op.shard]
			id := s.nextID
			s.nextID++
			shard := op.shard
			s.cancels = append(s.cancels,
				b.schedule(shard, op.arg, func() { fire(shard, id, base) }))
		case 1:
			s := states[op.shard]
			if len(s.cancels) > 0 {
				s.cancels[op.pick%len(s.cancels)]()
			}
		case 2:
			groupTime += op.arg
			b.runUntil(groupTime)
		case 3:
			if b.pendingEmpty(op.shard) {
				b.rebase(op.shard, op.arg)
			}
		}
	}
	b.drain()
	return states
}

// mergeLogs flattens per-shard logs into the (time, shard, log order) total
// order — the global firing order.
func mergeLogs(states []*shardState) []fired {
	var out []fired
	idx := make([]int, len(states))
	for {
		best := -1
		var bt Time
		for i, s := range states {
			if idx[i] < len(s.log) {
				if e := s.log[idx[i]]; best < 0 || e.at < bt {
					best, bt = i, e.at
				}
			}
		}
		if best < 0 {
			return out
		}
		s := states[best]
		for idx[best] < len(s.log) && s.log[idx[best]].at == bt {
			out = append(out, s.log[idx[best]])
			idx[best]++
		}
	}
}

func equalStates(a, b []*shardState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].log) != len(b[i].log) || a[i].nextID != b[i].nextID {
			return false
		}
		for j := range a[i].log {
			if a[i].log[j] != b[i].log[j] {
				return false
			}
		}
	}
	return true
}

// TestShardGroupMatchesReference replays randomized programs on the sharded
// engine and the reference group, demanding the identical global firing
// order.
func TestShardGroupMatchesReference(t *testing.T) {
	programs := 10000
	if testing.Short() {
		programs = 500
	}
	for p := 0; p < programs; p++ {
		seed := int64(p)*7919 + 17
		rng := rand.New(rand.NewSource(seed))
		nShards, ops := genProgram(rng)

		real := newRealBackend(nShards)
		realStates := runProgram(real, seed, nShards, ops)
		ref := newRefBackend(nShards)
		refStates := runProgram(ref, seed, nShards, ops)

		if !equalStates(realStates, refStates) {
			t.Fatalf("program %d: sharded serial vs reference diverged", p)
		}
		rm, fm := mergeLogs(realStates), mergeLogs(refStates)
		if len(rm) != len(fm) {
			t.Fatalf("program %d: merged log length %d vs %d", p, len(rm), len(fm))
		}
		for i := range rm {
			if rm[i] != fm[i] {
				t.Fatalf("program %d: merged log diverges at %d: %+v vs %+v", p, i, rm[i], fm[i])
			}
		}
	}
}

// TestShardCalendarMatchesScan drives random external Schedule, Cancel and
// Rebase sequences on a group's engines, Touching the changed shards in a
// random order, interleaved with group Steps and RunUntils, and demands that
// the calendar's minimum equal a brute-force scan of the engines and that
// the heap and its slot index stay consistent.
func TestShardCalendarMatchesScan(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	nop := func() {}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := NewShardGroup()
		engs := make([]*Engine, n)
		bases := make([]Time, n)
		events := make([][]Event, n)
		for i := range engs {
			engs[i] = NewEngine()
			bases[i] = Time(rng.Intn(500))
			engs[i].Rebase(bases[i])
			g.Attach(engs[i], bases[i])
		}
		dirty := map[int]bool{}
		touchDirty := func() {
			for _, i := range rng.Perm(n) {
				if dirty[i] {
					g.Touch(i)
				}
			}
			clear(dirty)
		}
		for op := 0; op < 300; op++ {
			i := rng.Intn(n)
			switch k := rng.Intn(10); {
			case k < 4:
				// Small delays force ties across shards at equal group times.
				events[i] = append(events[i], engs[i].Schedule(Time(rng.Intn(50)), nop))
				dirty[i] = true
			case k < 6:
				if len(events[i]) > 0 {
					events[i][rng.Intn(len(events[i]))].Cancel()
					dirty[i] = true
				}
			case k < 7:
				if engs[i].Pending() == 0 {
					delta := Time(rng.Intn(100))
					engs[i].Rebase(engs[i].Now() + delta)
					bases[i] += delta
					g.SetBase(i, bases[i])
				}
			case k < 8:
				touchDirty()
				g.Step()
			case k < 9:
				touchDirty()
				if next, ok := g.NextTime(); ok {
					g.RunUntil(next + Time(rng.Intn(30)))
				}
			default:
				touchDirty()
			}
			if len(dirty) > 0 {
				continue
			}
			checkCalendar(t, g)
			best, bt := -1, Time(0)
			for j, e := range engs {
				if et, ok := e.NextEventTime(); ok {
					if gt := et - bases[j]; best < 0 || gt < bt {
						best, bt = j, gt
					}
				}
			}
			gi, gt, ok := g.Next()
			if ok != (best >= 0) || (ok && (gi != best || gt != bt)) {
				t.Fatalf("seed %d op %d: calendar min (%d, %d, %v), scan (%d, %d)", seed, op, gi, gt, ok, best, bt)
			}
		}
	}
}

// checkCalendar verifies that the calendar holds exactly the shards with
// pending events, keyed by their next event's group time, in heap order,
// with every slot index mirrored.
func checkCalendar(t *testing.T, g *ShardGroup) {
	t.Helper()
	for p, i := range g.cal {
		s := &g.shards[i]
		if s.pos != p {
			t.Fatalf("shard %d at slot %d records pos %d", i, p, s.pos)
		}
		if p > 0 && g.calLess(i, g.cal[(p-1)/2]) {
			t.Fatalf("heap order broken at slot %d", p)
		}
	}
	for i := range g.shards {
		s := &g.shards[i]
		et, ok := s.eng.NextEventTime()
		if ok != (s.pos >= 0) || (ok && s.key != et-s.base) {
			t.Fatalf("shard %d: pending=%v pos=%d key=%d, next event group time %d", i, ok, s.pos, s.key, et-s.base)
		}
	}
}
