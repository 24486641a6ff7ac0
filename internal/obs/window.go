package obs

import "ssdtp/internal/sim"

// Aux sampling window (DESIGN.md §14). A tracer can carry one generic
// window: a fixed simulated-time interval whose boundary crossings invoke a
// caller-supplied callback. The telemetry log page — the simulator's one
// sampled record — rides this hook: obs stays ignorant of what is sampled,
// and telemetry stays ignorant of engine hooks.
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
