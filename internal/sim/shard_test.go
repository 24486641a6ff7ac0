package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// Property tests for ShardGroup (ISSUE 7 satellite): randomized
// schedule/cancel/rebase programs replayed against the retained sequential
// reference scheduler (refheap_test.go) extended to a multi-shard group,
// demanding identical firing order — and replayed again through
// conservative-horizon parallel windows at several worker counts, demanding
// per-shard identical outcomes regardless of how the run is windowed.
//
// Callbacks confine all effects to their own shard (the only usage the
// horizon contract admits), so any window is legal here and the windowed run
// must match the serial one exactly.

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

// shardState is the per-shard world a program's callbacks may touch. In the
// windowed executions different shards fire concurrently, so everything here
// must stay shard-private — including the rng that drives callback behavior,
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
	// windowed drives runUntil/drain through AdvanceBefore windows instead
	// of serial Step, using wrng to pick horizons. wrng only shapes the
	// window partition; outcomes must not depend on it.
	windowed bool
	wrng     *rand.Rand
	// windowTimes accumulates AdvanceBefore's returned batch times.
	windowTimes []Time
}

func newRealBackend(nShards, workers int, windowed bool, wseed int64) *realBackend {
	b := &realBackend{windowed: windowed, wrng: rand.New(rand.NewSource(wseed))}
	b.group = NewShardGroup(workers)
	for i := 0; i < nShards; i++ {
		e := NewEngine()
		b.engs = append(b.engs, e)
		b.bases = append(b.bases, 0)
		b.group.Attach(e, 0, nil)
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
	if !b.windowed {
		b.group.RunUntil(t)
		return
	}
	for {
		next, ok := b.group.NextTime()
		if !ok || next > t {
			return
		}
		// Random horizon past the next event: windows of varying width,
		// capped so nothing beyond the requested time fires (< t+1 ⇔ <= t).
		h := next + 1 + Time(b.wrng.Intn(400))
		if h > t+1 {
			h = t + 1
		}
		b.windowTimes = append(b.windowTimes, b.group.AdvanceBefore(h, true)...)
	}
}

func (b *realBackend) drain() {
	b.touchAll()
	if !b.windowed {
		for b.group.Step() {
		}
		return
	}
	// Alternate bounded windows with an occasional unbounded one.
	for {
		next, ok := b.group.NextTime()
		if !ok {
			return
		}
		if b.wrng.Intn(4) == 0 {
			b.windowTimes = append(b.windowTimes, b.group.AdvanceBefore(0, false)...)
			continue
		}
		h := next + 1 + Time(b.wrng.Intn(400))
		b.windowTimes = append(b.windowTimes, b.group.AdvanceBefore(h, true)...)
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
// identically regardless of backend or windowing.
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
// order — the global firing order for serial executions.
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
// engine (serial stepping) and the reference group, demanding the identical
// global firing order, then replays them again through parallel windows at
// several worker counts and demands identical per-shard outcomes.
func TestShardGroupMatchesReference(t *testing.T) {
	programs := 10000
	if testing.Short() {
		programs = 500
	}
	for p := 0; p < programs; p++ {
		seed := int64(p)*7919 + 17
		rng := rand.New(rand.NewSource(seed))
		nShards, ops := genProgram(rng)

		real := newRealBackend(nShards, 1, false, 0)
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

		// Windowed parallel executions: same program, same per-shard rng
		// seeds, different window partitions and worker counts. Outcomes
		// must be independent of both.
		if p%5 != 0 {
			continue
		}
		for _, workers := range []int{2, 4} {
			wb := newRealBackend(nShards, workers, true, seed^int64(workers)<<32)
			wStates := runProgram(wb, seed, nShards, ops)
			if !equalStates(wStates, realStates) {
				t.Fatalf("program %d: windowed (workers=%d) vs serial diverged", p, workers)
			}
			for i, e := range wb.engs {
				if got, want := e.Now(), real.engs[i].Now(); got != want {
					t.Fatalf("program %d: shard %d clock %d vs serial %d (workers=%d)",
						p, i, got, want, workers)
				}
				if got, want := e.Pending(), real.engs[i].Pending(); got != want {
					t.Fatalf("program %d: shard %d pending %d vs serial %d", p, i, got, want)
				}
			}
			// AdvanceBefore's returned batch times must be exactly the
			// distinct group times the serial run fired at (after the window
			// phases began — here all windows, so compare against the whole
			// distinct fired-time list).
			var want []Time
			for _, e := range mergeLogs(realStates) {
				if len(want) == 0 || want[len(want)-1] != e.at {
					want = append(want, e.at)
				}
			}
			got := sortDedup(wb.windowTimes)
			if len(got) != len(want) {
				t.Fatalf("program %d: window batch times %d vs fired instants %d", p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("program %d: window batch time[%d]=%d, want %d", p, i, got[i], want[i])
				}
			}
		}
	}
}

// sortDedup sorts and de-duplicates window batch times. Later program phases
// can schedule roots at group times earlier than instants already fired on
// other shards, so the concatenation of per-window ascending runs is not
// globally ascending.
func sortDedup(ts []Time) []Time {
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	var out []Time
	for _, t := range ts {
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	return out
}

// TestShardGroupHorizon pins Horizon's min-combination semantics under the
// busy predicate: a busy shard bounds the horizon at its next event's group
// time; an idle shard, a shard with no predicate and a busy shard with no
// events do not; the caller's limit caps the result.
func TestShardGroupHorizon(t *testing.T) {
	g := NewShardGroup(1)
	e0, e1, e2 := NewEngine(), NewEngine(), NewEngine()
	busy0 := false
	g.Attach(e0, 0, func() bool { return busy0 })
	g.Attach(e1, 0, nil)
	g.Attach(e2, 10, func() bool { return true })
	nop := func() {}

	check := func(what string, limit Time, bounded bool, want Time, wantOK bool) {
		t.Helper()
		if h, ok := g.Horizon(limit, bounded); h != want || ok != wantOK {
			t.Fatalf("%s: Horizon(%d,%v) = (%d,%v), want (%d,%v)", what, limit, bounded, h, ok, want, wantOK)
		}
	}
	check("no events, unbounded caller", 0, false, 0, false)
	check("caller limit alone", 100, true, 100, true)

	e0.Schedule(40, nop)
	e1.Schedule(20, nop)
	g.Touch(0)
	g.Touch(1)
	check("idle shard and predicate-free shard", 100, true, 100, true)
	check("idle shard, unbounded caller", 0, false, 0, false)

	busy0 = true
	check("busy shard below limit", 100, true, 40, true)
	check("busy shard, unbounded caller", 0, false, 40, true)
	check("limit below busy shard", 30, true, 30, true)

	e2.Schedule(25, nop) // group time 25 - 10 = 15
	g.Touch(2)
	check("earliest busy shard wins", 100, true, 15, true)
	e2.Run()
	g.Touch(2)
	check("busy shard drained", 100, true, 40, true)
}

// TestShardGroupPanicPropagates ensures a worker panic surfaces on the
// caller after all workers stop, not as a crashed goroutine.
func TestShardGroupPanicPropagates(t *testing.T) {
	g := NewShardGroup(2)
	for i := 0; i < 2; i++ {
		e := NewEngine()
		e.Schedule(10, func() { panic("model bug") })
		g.Attach(e, 0, nil)
	}
	defer func() {
		if r := recover(); r != "model bug" {
			t.Fatalf("recovered %v, want worker panic", r)
		}
	}()
	g.AdvanceBefore(0, false)
	t.Fatal("AdvanceBefore returned despite worker panic")
}

// TestShardCalendarMatchesScan drives random external Schedule, Cancel and
// Rebase sequences on a group's engines, Touching the changed shards in a
// random order, interleaved with group Steps and windows, and demands that
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
		g := NewShardGroup(1 + rng.Intn(3))
		engs := make([]*Engine, n)
		bases := make([]Time, n)
		events := make([][]Event, n)
		for i := range engs {
			engs[i] = NewEngine()
			bases[i] = Time(rng.Intn(500))
			engs[i].Rebase(bases[i])
			g.Attach(engs[i], bases[i], nil)
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
					g.AdvanceBefore(next+Time(rng.Intn(30)), true)
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
