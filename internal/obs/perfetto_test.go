package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ssdtp/internal/sim"
)

// pfDoc mirrors the Chrome trace-event JSON document shape for test parsing.
type pfDoc struct {
	DisplayTimeUnit string    `json:"displayTimeUnit"`
	TraceEvents     []pfDocEv `json:"traceEvents"`
}

type pfDocEv struct {
	Ph   string  `json:"ph"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	TS   float64 `json:"ts"`
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	ID   string  `json:"id"`
}

// perfettoFixture builds a tracer with every record shape the exporter
// handles: nested die-track spans, a GC span, an overlapping async request
// span, and point events.
func perfettoFixture(t *testing.T) *Tracer {
	t.Helper()
	eng := sim.NewEngine()
	tr := NewTracer("grid/cell")
	tr.BindEngine(eng)

	req := tr.Begin("ssd.write", Int("off", 0), Int("len", 4096))
	prog := tr.Begin("nand.program", Int("ch", 0), Int("chip", 1), Int("die", 0))
	eng.Schedule(10*sim.Microsecond, func() {
		prog.End()
		// Back-to-back op on the same die: ends at t, next begins at t.
		read := tr.Begin("nand.read", Int("ch", 0), Int("chip", 1), Int("die", 0))
		eng.Schedule(5*sim.Microsecond, func() { read.End() })
	})
	gc := tr.Begin("ftl.gc", Int("pu", 3))
	eng.Schedule(20*sim.Microsecond, func() {
		gc.End()
		req.End()
	})
	eng.Run()
	tr.Emit("ftl.cache.evict", Int("dirty", 1))
	return tr
}

// The export must be a valid JSON document with the fields Perfetto needs.
func TestPerfettoValidJSON(t *testing.T) {
	tr := perfettoFixture(t)
	var sb strings.Builder
	if err := tr.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc pfDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev.Ph)
	}
	joined := strings.Join(phases, "")
	for _, ph := range []string{"M", "B", "E", "b", "e", "i"} {
		if !strings.Contains(joined, ph) {
			t.Errorf("no %q events in export", ph)
		}
	}
}

// Per track: timestamps must be monotonic, B/E pairs balanced with the depth
// never going negative (Perfetto rejects unbalanced thread tracks), and async
// b/e pairs matched by id.
func TestPerfettoTracksWellFormed(t *testing.T) {
	tr := perfettoFixture(t)
	var sb strings.Builder
	if err := tr.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc pfDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	type track struct{ pid, tid int }
	lastTS := map[track]float64{}
	depth := map[track]int{}
	asyncOpen := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		k := track{ev.PID, ev.TID}
		if prev, ok := lastTS[k]; ok && ev.TS < prev {
			t.Fatalf("track %v: ts %v after %v", k, ev.TS, prev)
		}
		lastTS[k] = ev.TS
		switch ev.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("track %v: E without matching B at ts %v", k, ev.TS)
			}
		case "b":
			asyncOpen[ev.ID]++
		case "e":
			asyncOpen[ev.ID]--
			if asyncOpen[ev.ID] < 0 {
				t.Fatalf("async id %q: e without matching b", ev.ID)
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Errorf("track %v: %d unclosed B events", k, d)
		}
	}
	for id, n := range asyncOpen {
		if n != 0 {
			t.Errorf("async id %q: %d unclosed b events", id, n)
		}
	}
}

// Multi-cell collector export: one process per cell, in label order, and the
// whole document still parses.
func TestPerfettoCollectorMultiCell(t *testing.T) {
	col := NewCollector()
	for _, label := range []string{"grid/b", "grid/a"} {
		eng := sim.NewEngine()
		tr := col.Cell(label)
		tr.BindEngine(eng)
		sp := tr.Begin("ssd.read")
		eng.Schedule(sim.Microsecond, func() { sp.End() })
		eng.Run()
	}
	var sb strings.Builder
	if err := col.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc pfDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Index(out, `"grid/a"`) > strings.Index(out, `"grid/b"`) {
		t.Fatal("cells not ordered by label")
	}
}

// The record cap must drop overflow records (not grow the buffer) and export
// the drop count, so unbounded -full traces degrade gracefully and visibly.
func TestRecordCapDropsCounted(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer("c")
	tr.BindEngine(eng)
	tr.SetRecordCap(2)
	for i := 0; i < 5; i++ {
		tr.Emit("ev", Int("i", int64(i)))
	}
	if tr.Records() != 2 {
		t.Fatalf("records = %d, want 2", tr.Records())
	}
	if tr.DroppedRecords() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.DroppedRecords())
	}
	var sb strings.Builder
	if err := tr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `ssdtp_trace_dropped_spans_total{cell="c"} 3`) {
		t.Fatalf("missing dropped-spans metric:\n%s", sb.String())
	}
	// Collector-applied cap reaches existing cells too.
	col := NewCollector()
	cell := col.Cell("x")
	col.SetRecordCap(1)
	cell.Emit("a")
	cell.Emit("b")
	if cell.Records() != 1 || cell.DroppedRecords() != 1 {
		t.Fatalf("collector cap: records=%d dropped=%d, want 1/1", cell.Records(), cell.DroppedRecords())
	}
}

// Aux window sampling: the first observation only anchors the grid, fires
// land on absolute multiples of the interval, an event that jumps several
// boundaries fires once per boundary, and nothing fires while suspended.
// NextWindowBoundary reports the same grid the pump must respect.
func TestWindowSampling(t *testing.T) {
	const itv = 10 * sim.Microsecond
	eng := sim.NewEngine()
	tr := NewTracer("c")
	tr.BindEngine(eng)
	if _, ok := tr.NextWindowBoundary(); ok {
		t.Fatal("NextWindowBoundary ok with no window set")
	}
	var nilTr *Tracer
	if _, ok := nilTr.NextWindowBoundary(); ok {
		t.Fatal("nil tracer reports a window boundary")
	}

	type fire struct {
		at      sim.Time
		written int64
	}
	var fires []fire
	var written int64
	tr.SetWindow(itv, func(at sim.Time) { fires = append(fires, fire{at, written}) })
	if tb, ok := tr.NextWindowBoundary(); !ok || tb != 0 {
		t.Fatalf("before anchoring: NextWindowBoundary = (%d, %v), want (0, true)", tb, ok)
	}

	// 3µs anchors the grid at 10µs without firing. The hook runs before the
	// event's callback, so each fire sees state as of the previous callback.
	eng.Schedule(3*sim.Microsecond, func() { written = 1 })
	eng.Step()
	if len(fires) != 0 {
		t.Fatalf("anchoring observation fired %d times", len(fires))
	}
	if tb, ok := tr.NextWindowBoundary(); !ok || tb != itv {
		t.Fatalf("after anchoring: NextWindowBoundary = (%d, %v), want (%d, true)", tb, ok, itv)
	}
	// 12µs crosses 10µs once.
	eng.Schedule(9*sim.Microsecond, func() { written = 2 })
	eng.Step()
	// 47µs jumps 20, 30 and 40µs: one fire per boundary, all reading the
	// state left by the 12µs callback.
	eng.Schedule(35*sim.Microsecond, func() { written = 3 })
	eng.Step()
	want := []fire{{10 * sim.Microsecond, 1}, {20 * sim.Microsecond, 2}, {30 * sim.Microsecond, 2}, {40 * sim.Microsecond, 2}}
	if !reflect.DeepEqual(fires, want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	if tb, ok := tr.NextWindowBoundary(); !ok || tb != 50*sim.Microsecond {
		t.Fatalf("NextWindowBoundary = (%d, %v), want (50000, true)", tb, ok)
	}

	// Suspended: no fires and no boundary; the grid resumes where it was.
	tr.Suspend()
	if _, ok := tr.NextWindowBoundary(); ok {
		t.Fatal("NextWindowBoundary ok while suspended")
	}
	eng.Schedule(20*sim.Microsecond, func() {}) // 67µs
	eng.Step()
	if len(fires) != len(want) {
		t.Fatalf("suspended window fired: %v", fires[len(want):])
	}
	tr.Resume()
	eng.Schedule(1*sim.Microsecond, func() {}) // 68µs
	eng.Step()
	if n := len(fires); n != len(want)+2 || fires[n-2].at != 50*sim.Microsecond || fires[n-1].at != 60*sim.Microsecond {
		t.Fatalf("after resume fires = %v, want 50µs and 60µs appended", fires)
	}

	tr.SetWindow(0, nil)
	if _, ok := tr.NextWindowBoundary(); ok {
		t.Fatal("NextWindowBoundary ok after the window was cleared")
	}
}
