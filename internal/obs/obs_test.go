package obs

import (
	"strings"
	"testing"

	"ssdtp/internal/sim"
)

// A nil tracer (and everything hanging off it) must be a complete no-op:
// this is the zero-overhead-when-disabled contract instrumented hot paths
// rely on.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Suspend()
	tr.Resume()
	tr.BindEngine(sim.NewEngine())
	tr.Emit("ev", Int("k", 1))
	sp := tr.Begin("op", Str("kind", "x"))
	if sp.Active() {
		t.Fatal("span from nil tracer is active")
	}
	sp.Event("phase")
	sp.End()
	tr.Metrics().Set("m", 1)
	tr.Metrics().Add("m", 1)
	if got := tr.Metrics().Get("m"); got != 0 {
		t.Fatalf("nil metrics Get = %d", got)
	}
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil tracer exported %q", sb.String())
	}

	var col *Collector
	if got := col.Cell("x"); got != nil {
		t.Fatalf("nil collector handed out tracer %v", got)
	}
	if err := col.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestSpanAndEventJSONL(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer("cellA")
	tr.BindEngine(eng)

	var spanOut string
	sp := tr.Begin("ssd.write", Int("off", 4096), Int("len", 8192))
	eng.Schedule(5*sim.Microsecond, func() {
		sp.Event("ftl.dispatch")
	})
	eng.Schedule(30*sim.Microsecond, func() {
		sp.End(Str("result", "ok"))
	})
	eng.Run()
	tr.Emit("ftl.cache.evict", Int("dirty", 3))

	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	spanOut = sb.String()
	want := `{"cell":"cellA","kind":"event","name":"ftl.dispatch","span":1,"t":5000}
{"cell":"cellA","kind":"span","name":"ssd.write","id":1,"start":0,"end":30000,"attrs":{"off":4096,"len":8192,"result":"ok"}}
{"cell":"cellA","kind":"event","name":"ftl.cache.evict","t":30000,"attrs":{"dirty":3}}
`
	if spanOut != want {
		t.Fatalf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", spanOut, want)
	}

	// Export is repeatable: same bytes on a second render.
	var sb2 strings.Builder
	if err := tr.WriteJSONL(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != spanOut {
		t.Fatal("second WriteJSONL differs from first")
	}
}

// Suspend must drop records begun or emitted while suspended, without
// disturbing later capture — the prefill-skipping mechanism.
func TestSuspendResume(t *testing.T) {
	tr := NewTracer("c")
	tr.Suspend()
	tr.Emit("dropped")
	sp := tr.Begin("dropped.span")
	sp.End()
	if tr.Records() != 0 {
		t.Fatalf("suspended tracer captured %d records", tr.Records())
	}
	tr.Resume()
	tr.Emit("kept")
	if tr.Records() != 1 {
		t.Fatalf("resumed tracer captured %d records, want 1", tr.Records())
	}
	// A span begun while suspended stays inert even after Resume.
	if sp.Active() {
		t.Fatal("span begun under suspension is active")
	}
}

// At its record cap a tracer stops Recording, and a span begun there without
// attributes costs no allocation yet still advances the span ID and counts
// one dropped record, exactly as a span with attributes would. CI runs this
// (-run 'ZeroAlloc') as a regression gate.
func TestRecordCapSpanZeroAlloc(t *testing.T) {
	tr := NewTracer("c")
	tr.SetRecordCap(1)
	if !tr.Recording() {
		t.Fatal("empty capped tracer not recording")
	}
	tr.Emit("kept")
	if tr.Recording() {
		t.Fatal("tracer at its cap still reports Recording")
	}
	dropped, id := tr.DroppedRecords(), tr.nextID
	tr.Begin("dropped").End()
	if tr.DroppedRecords() != dropped+1 || tr.nextID != id+1 {
		t.Fatalf("Begin/End at the cap: dropped %d→%d, span id %d→%d; want one more of each",
			dropped, tr.DroppedRecords(), id, tr.nextID)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { tr.Begin("dropped").End() }); allocs != 0 {
			t.Fatalf("Begin/End at the record cap allocated %.2f objects/op, want 0", allocs)
		}
	}
	if tr.Records() != 1 {
		t.Fatalf("capped tracer holds %d records, want 1", tr.Records())
	}
}

func TestEngineHookMetrics(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer("c")
	tr.BindEngine(eng)
	for i := 0; i < 10; i++ {
		eng.Schedule(sim.Time(i)*sim.Microsecond, func() {})
	}
	eng.Run()
	var sb strings.Builder
	if err := tr.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `ssdtp_sim_events_fired_total{cell="c"} 10`) {
		t.Fatalf("missing fired-events metric:\n%s", out)
	}
	// The hook observes the queue after the firing event leaves it: 10
	// events queued up front peak at 9 remaining.
	if !strings.Contains(out, `ssdtp_sim_event_queue_high_water{cell="c"} 9`) {
		t.Fatalf("missing high-water metric:\n%s", out)
	}
}

// Collector exports must order cells by label regardless of registration
// order — the worker-count-independence contract.
func TestCollectorOrdersByLabel(t *testing.T) {
	col := NewCollector()
	// Register out of order, as parallel workers would.
	b := col.Cell("grid/b")
	a := col.Cell("grid/a")
	b.Emit("evB")
	a.Emit("evA")
	a.Metrics().Set("ssdtp_x", 1)
	b.Metrics().Set("ssdtp_x", 2)

	var traceOut, metOut strings.Builder
	if err := col.WriteJSONL(&traceOut); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteMetrics(&metOut); err != nil {
		t.Fatal(err)
	}
	wantTrace := `{"cell":"grid/a","kind":"event","name":"evA","t":0}
{"cell":"grid/b","kind":"event","name":"evB","t":0}
`
	if traceOut.String() != wantTrace {
		t.Fatalf("trace order:\ngot:\n%s\nwant:\n%s", traceOut.String(), wantTrace)
	}
	wantMet := "# TYPE ssdtp_x gauge\n" +
		"ssdtp_x{cell=\"grid/a\"} 1\n" +
		"ssdtp_x{cell=\"grid/b\"} 2\n"
	if metOut.String() != wantMet {
		t.Fatalf("metrics order:\ngot:\n%s\nwant:\n%s", metOut.String(), wantMet)
	}
	if col.Cell("grid/a") != a {
		t.Fatal("repeated Cell(label) did not return the same tracer")
	}
}

// Attribute values must be JSON-escaped so arbitrary labels cannot corrupt
// the stream.
func TestStringAttrEscaping(t *testing.T) {
	tr := NewTracer(`cell"with\quotes`)
	tr.Emit("ev", Str("k", "line\nbreak\"q"))
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"cell":"cell\"with\\quotes","kind":"event","name":"ev","t":0,"attrs":{"k":"line\nbreak\"q"}}` + "\n"
	if sb.String() != want {
		t.Fatalf("escaping:\ngot:  %q\nwant: %q", sb.String(), want)
	}
}
