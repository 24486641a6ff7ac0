// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each experiment is a
// pure function from a seed (and a Scale) to a result struct that knows how
// to render itself as the paper's rows/series; cmd/reproduce prints them and
// the repository's benchmarks time them.
//
// The grid-shaped experiments (fig1, fig2, fig3/tabS1, fig4a, tabS3, tabS4,
// tabS5, tabS7) are matrices of independent simulations. They express their
// cells through internal/runner and fan out across the pool installed with
// SetPool; each cell builds its own sim.Engine and device, so cells share
// no mutable state and the assembled result — and hence every rendered
// table — is byte-identical for any worker count.
package experiments

import (
	"sync/atomic"

	"ssdtp/internal/obs"
	"ssdtp/internal/runner"
	"ssdtp/internal/ssd"
	"ssdtp/internal/telemetry"
)

// cellPool holds the orchestrator grid experiments fan out on. The default
// (nil) runs cells serially, preserving the historical behaviour for
// library callers; cmd/reproduce and the benchmarks install a parallel
// pool.
var cellPool atomic.Pointer[runner.Pool]

// SetPool installs the worker pool used by the grid-shaped experiments.
// Passing nil restores serial execution. Results do not depend on the pool:
// per-cell seeds are pure functions of the experiment seed, so any worker
// count reproduces the serial output bit-for-bit.
func SetPool(p *runner.Pool) { cellPool.Store(p) }

// pool returns the installed pool (possibly nil, meaning serial).
func pool() *runner.Pool { return cellPool.Load() }

// observerCol holds the collector the traced experiments report to. Nil (the
// default) disables tracing at zero cost: cells receive a nil tracer and
// every instrumentation site reduces to one pointer check.
var observerCol atomic.Pointer[obs.Collector]

// SetObserver installs a collector that receives per-cell trace spans and
// metric snapshots from the experiments that support it (fig3, tabS3, tabS4).
// Like SetPool, it does not affect results: spans are timestamped with each
// cell's simulated clock and keyed by cell label, so the collected streams
// are byte-identical for any worker count. Passing nil disables tracing.
func SetObserver(col *obs.Collector) { observerCol.Store(col) }

// observer returns the installed collector (possibly nil).
func observer() *obs.Collector { return observerCol.Load() }

// telemetryCells holds the telemetry set the device/fleet experiments stream
// transparency log pages into. Nil (the default) disables telemetry at zero
// cost: cells attach a nil recorder, which is a no-op end to end.
var telemetryCells atomic.Pointer[telemetry.Set]

// SetTelemetry installs a set that receives per-cell transparency log-page
// streams from the experiments that support it (fig3, fleet, tabS3, tabS4,
// transparency).
// Telemetry sampling rides each cell tracer's aux window, so an observer
// collector must also be installed for streams to be captured (cells without
// a tracer cannot sample). Does not affect results: rows are read-only
// snapshots on aligned simulated-clock boundaries, byte-identical for any
// worker count. Passing nil disables telemetry.
func SetTelemetry(ts *telemetry.Set) { telemetryCells.Store(ts) }

// telemetrySet returns the installed set (possibly nil).
func telemetrySet() *telemetry.Set { return telemetryCells.Load() }

// attachTelemetry streams dev's log page into the installed set under the
// cell's label. The caller defers the returned func, which marks the cell
// done once its run is over. Without a set both are no-ops.
func attachTelemetry(dev *ssd.Device, label string) (done func()) {
	ts := telemetrySet()
	if ts == nil {
		return func() {}
	}
	dev.AttachTelemetry(ts.Cell(label))
	return func() { ts.MarkDone(label) }
}

// Scale trades fidelity for runtime. Full is what EXPERIMENTS.md reports;
// Quick is for benchmarks and smoke tests.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// pick returns q under Quick, f under Full.
func (s Scale) pick(q, f int64) int64 {
	if s == Quick {
		return q
	}
	return f
}
