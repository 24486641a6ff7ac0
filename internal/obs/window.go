package obs

import "ssdtp/internal/sim"

// Aux sampling window (DESIGN.md §14). A tracer can carry one generic
// window: a fixed simulated-time interval whose boundary crossings invoke a
// caller-supplied callback. The telemetry log page — the simulator's one
// sampled record — rides this hook: obs stays ignorant of what is sampled,
// telemetry stays ignorant of engine hooks, and the shard pump's
// conservative lookahead covers the stream through NextWindowBoundary.
//
// The first observation only anchors the grid at the next absolute multiple
// of the interval (so a restored clone and a from-scratch build align), and
// each later observation fires once per crossed boundary, sampling *current*
// state at the boundary timestamp.

// window is a tracer's aux sampling state.
type window struct {
	interval sim.Time
	fire     func(at sim.Time)
	nextAt   sim.Time
	inited   bool
}

// observe advances the window to now, firing once per crossed boundary.
func (w *window) observe(now sim.Time) {
	if !w.inited {
		w.inited = true
		w.nextAt = (now/w.interval + 1) * w.interval
		return
	}
	for now >= w.nextAt {
		w.fire(w.nextAt)
		w.nextAt += w.interval
	}
}

// SetWindow installs the aux sampling window: fire runs at every crossed
// boundary of the given interval, receiving the boundary timestamp. The
// callback runs inside the engine hook and must only read simulation state.
// interval <= 0 or a nil fire clears the window.
func (t *Tracer) SetWindow(interval sim.Time, fire func(at sim.Time)) {
	if t == nil {
		return
	}
	if interval <= 0 || fire == nil {
		t.win = nil
		return
	}
	t.win = &window{interval: interval, fire: fire}
}

// NextWindowBoundary returns the simulated time of the window's next
// boundary, or ok=false when no window is active (none set, or sampling
// suspended). The parallel fleet engine caps its lookahead here: a boundary
// samples *current* device state at the first event at or past it, so no
// event beyond the boundary may fire before the row is captured. Before the
// first observation anchors the grid it conservatively reports (0, true) —
// callers treat that as "no lookahead until anchored".
func (t *Tracer) NextWindowBoundary() (sim.Time, bool) {
	if t == nil || t.win == nil || t.suspended {
		return 0, false
	}
	if !t.win.inited {
		return 0, true
	}
	return t.win.nextAt, true
}
