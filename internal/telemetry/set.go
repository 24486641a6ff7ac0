package telemetry

import (
	"bufio"
	"io"
	"sort"
	"sync"

	"ssdtp/internal/sim"
)

// Set aggregates recorders across concurrently-running cells, mirroring
// obs.Collector: each cell's recorder is single-threaded within its own
// simulation, the Set only synchronizes creation, completion marking, and
// export. Streams render label-sorted so output is deterministic regardless
// of which worker finishes first. A nil *Set hands out nil recorders, so
// callers wire telemetry unconditionally.
type Set struct {
	mu       sync.Mutex
	interval sim.Time
	cells    map[string]*Recorder
	done     map[string]bool
}

// NewSet returns an empty set whose cells sample every interval. A
// non-positive interval yields a nil (disabled) set.
func NewSet(interval sim.Time) *Set {
	if interval <= 0 {
		return nil
	}
	return &Set{
		interval: interval,
		cells:    make(map[string]*Recorder),
		done:     make(map[string]bool),
	}
}

// Interval returns the set's sampling interval (0 = disabled).
func (s *Set) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

// Cell returns the recorder registered under label, creating it on first
// use. Safe for concurrent use.
func (s *Set) Cell(label string) *Recorder {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.cells[label]
	if r == nil {
		r = NewRecorder(label, s.interval)
		s.cells[label] = r
	}
	return r
}

// Adopt registers an externally built recorder under its cell label (the
// transparency experiment samples at its own fixed window, narrower than the
// set's, and still streams into the shared export). Latest registration
// wins. A nil set or recorder no-ops.
func (s *Set) Adopt(r *Recorder) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	s.cells[r.cell] = r
	s.mu.Unlock()
}

// MarkDone records that label's simulation has completed, making its rows
// eligible for WriteJSONLDone (the live HTTP view shows finished cells only,
// so readers never race a running engine).
func (s *Set) MarkDone(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.done[label] = true
	s.mu.Unlock()
}

// recorders returns all cells' recorders, label-sorted.
func (s *Set) recorders(doneOnly bool) []*Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	labels := make([]string, 0, len(s.cells))
	for l := range s.cells {
		if doneOnly && !s.done[l] {
			continue
		}
		labels = append(labels, l)
	}
	sort.Strings(labels)
	recs := make([]*Recorder, len(labels))
	for i, l := range labels {
		recs[i] = s.cells[l]
	}
	return recs
}

// WriteJSONL renders every cell's rows, cells in label order.
func (s *Set) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	return writeRows(w, nil, s.recorders(false), appendRowJSON)
}

// WriteJSONLDone renders only cells marked done, in label order.
func (s *Set) WriteJSONLDone(w io.Writer) error {
	if s == nil {
		return nil
	}
	return writeRows(w, nil, s.recorders(true), appendRowJSON)
}

// WriteCSV renders the rows WriteJSONL renders, in the same order, as CSV:
// a header naming cell, t_ns and the page fields, then one line per row. A
// set with no rows writes the header alone; a nil set writes nothing.
func (s *Set) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	header := []byte("cell,t_ns")
	for _, f := range pageFields {
		header = append(header, ',')
		header = append(header, f...)
	}
	header = append(header, '\n')
	return writeRows(w, header, s.recorders(false), appendRowCSV)
}

// writeRows writes header, then every row of recs encoded by enc. Write
// errors are sticky in the bufio.Writer, so Flush reports the first.
func writeRows(w io.Writer, header []byte, recs []*Recorder,
	enc func([]byte, string, sim.Time, *Page) []byte) error {
	bw := bufio.NewWriter(w)
	bw.Write(header)
	var line []byte
	for _, r := range recs {
		for i := range r.rows {
			row := &r.rows[i]
			line = enc(line[:0], row.Cell, row.T, &row.Page)
			bw.Write(line)
		}
	}
	return bw.Flush()
}
