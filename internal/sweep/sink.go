package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"batchsched/internal/metrics"
)

// Record is one completed replication of one cell — the unit of the JSONL
// streams and of checkpoint/resume granularity.
type Record struct {
	// Cell is the grid point the replication ran.
	Cell Cell `json:"cell"`
	// Rep is the replication number in [0, Reps).
	Rep int `json:"rep"`
	// Seed is the substream seed the replication was simulated with.
	Seed int64 `json:"seed"`
	// Summary is the run's digested metrics.
	Summary metrics.Summary `json:"summary"`
}

// sortRecords orders records by (cell index, replication) — the canonical
// output order, independent of completion order.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Cell.Index != recs[j].Cell.Index {
			return recs[i].Cell.Index < recs[j].Cell.Index
		}
		return recs[i].Rep < recs[j].Rep
	})
}

// header is the first line of a checkpoint file: the normalized spec, so a
// resume against a different spec is refused instead of silently merged.
type header struct {
	Spec Spec `json:"spec"`
}

// sink appends records to the checkpoint file as they complete, one JSON
// line per record, flushed per append so a killed process loses at most the
// line being written (a torn tail line is dropped on resume).
type sink struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// openCheckpoint opens (or creates) the checkpoint at path. With resume
// set and a non-empty existing file, the previously completed records are
// loaded and returned and new records append after them; otherwise the file
// is started fresh with a spec header line.
func openCheckpoint(path string, spec Spec, resume bool) (*sink, []Record, error) {
	var loaded []Record
	valid := int64(0)
	existing := false
	if resume {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			existing = true
			var err error
			loaded, valid, err = loadCheckpoint(path, spec)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	// Drop the torn tail line a killed process may have left (and, on a
	// fresh start, any stale content) so appends always begin on a line
	// boundary.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	s := &sink{f: f, w: bufio.NewWriter(f)}
	if !existing {
		line, err := json.Marshal(header{Spec: spec.Norm()})
		if err != nil {
			s.Close()
			return nil, nil, err
		}
		if err := s.appendLine(line); err != nil {
			s.Close()
			return nil, nil, err
		}
	}
	return s, loaded, nil
}

// Append writes one record line and flushes it to the OS.
func (s *sink) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	return s.appendLine(line)
}

func (s *sink) appendLine(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	return nil
}

// Close flushes and closes the checkpoint file.
func (s *sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// loadCheckpoint reads a checkpoint written for spec and returns its
// completed records and the length of their valid prefix in bytes, so a
// resuming sink can truncate a torn tail before appending. It verifies the
// header matches the (normalized) spec, verifies each record's cell
// identity against the spec's grid, and tolerates exactly one torn line at
// the tail — the write a killed process did not finish.
func loadCheckpoint(path string, spec Spec) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) == 0 || len(bytes.TrimSpace(lines[0])) == 0 {
		return nil, 0, fmt.Errorf("sweep: checkpoint %s is empty", path)
	}
	var h header
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return nil, 0, fmt.Errorf("sweep: checkpoint %s: bad header: %w", path, err)
	}
	wantSpec, err := json.Marshal(spec.Norm())
	if err != nil {
		return nil, 0, err
	}
	gotSpec, err := json.Marshal(h.Spec)
	if err != nil {
		return nil, 0, err
	}
	if !bytes.Equal(wantSpec, gotSpec) {
		return nil, 0, fmt.Errorf("sweep: checkpoint %s was written for a different spec (refusing to merge); "+
			"delete it or rerun without -resume", path)
	}
	cells := spec.Cells()
	valid := int64(len(lines[0]) + 1)
	var recs []Record
	for i, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			valid += int64(len(line) + 1)
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-2 { // torn tail line of a killed run
				break
			}
			return nil, 0, fmt.Errorf("sweep: checkpoint %s: corrupt record on line %d: %w", path, i+2, err)
		}
		if rec.Cell.Index < 0 || rec.Cell.Index >= len(cells) ||
			cells[rec.Cell.Index].Key() != rec.Cell.Key() {
			return nil, 0, fmt.Errorf("sweep: checkpoint %s: record %d does not belong to this spec's grid", path, i+2)
		}
		recs = append(recs, rec)
		valid += int64(len(line) + 1)
	}
	if valid > int64(len(data)) {
		valid = int64(len(data))
	}
	return recs, valid, nil
}

// EncodeJSONL writes records as JSON lines in canonical (cell, rep) order.
func EncodeJSONL(w io.Writer, recs []Record) error {
	sorted := append([]Record(nil), recs...)
	sortRecords(sorted)
	bw := bufio.NewWriter(w)
	for _, rec := range sorted {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL atomically writes the canonical results file: records in
// (cell, rep) order, via a temp file renamed into place, so readers never
// observe a half-written file and interrupted-then-resumed sweeps finalize
// byte-identically to uninterrupted ones.
func WriteJSONL(path string, recs []Record) error {
	return writeAtomic(path, func(w io.Writer) error { return EncodeJSONL(w, recs) })
}

// ReadJSONL loads a results file written by WriteJSONL.
func ReadJSONL(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("sweep: %s line %d: %w", path, i+1, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// writeAtomic writes via a same-directory temp file and rename.
func writeAtomic(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
