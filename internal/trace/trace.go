// Package trace records simulation execution events as JSON Lines, one
// event per line, for offline analysis and debugging. A Writer is an
// observer of the control node's event stream; attach it to a backend with
// SetObserver.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"batchsched/internal/engine"
)

// Event is one trace record.
type Event struct {
	// At is the virtual time in milliseconds.
	At float64 `json:"at_ms"`
	// Kind is "step", "commit", "restart", "fault", "abort" or "retry".
	Kind string `json:"kind"`
	// Txn is the transaction id (0 for machine-level fault events).
	Txn int64 `json:"txn,omitempty"`
	// Step is the step index (step events only). A pointer so step 0
	// round-trips: omitempty on a plain int would drop it.
	Step *int `json:"step,omitempty"`
	// File is the file the step accessed (step events only); pointer for
	// the same reason — file 0 is a real file.
	File *int `json:"file,omitempty"`
	// Write marks writing steps (step events only).
	Write bool `json:"write,omitempty"`
	// RTms is the response time in milliseconds (commit events only).
	RTms float64 `json:"rt_ms,omitempty"`
	// Cost is the transaction's total actual I/O demand in objects
	// (commit events only) — lets consumers classify transaction sizes.
	Cost float64 `json:"cost,omitempty"`
	// Restarts is the transaction's restart count (commit/restart events).
	Restarts int `json:"restarts,omitempty"`
	// Node is the data-processing node of a fault event; a pointer so
	// node 0 round-trips.
	Node *int `json:"node,omitempty"`
	// Fault is the fault kind ("crash", "restore", "slow", "slowend",
	// "msgloss"; fault events only).
	Fault string `json:"fault,omitempty"`
	// Reason is why a fault aborted the transaction ("crash", "timeout";
	// abort events only).
	Reason string `json:"reason,omitempty"`
	// Attempt is the 1-based re-dispatch attempt (retry events only).
	Attempt int `json:"attempt,omitempty"`
}

// ptr returns a pointer to v (for the pointer-typed Event fields).
func ptr(v int) *int { return &v }

// StepIndex returns the step index, or -1 when absent.
func (e Event) StepIndex() int {
	if e.Step == nil {
		return -1
	}
	return *e.Step
}

// FileID returns the accessed file, or -1 when absent.
func (e Event) FileID() int {
	if e.File == nil {
		return -1
	}
	return *e.File
}

// Writer streams events to an io.Writer as JSONL. Create with NewWriter
// and Flush (or Close via the caller's file) when done.
type Writer struct {
	bw     *bufio.Writer
	enc    *json.Encoder
	events int
	lastAt float64
	err    error
}

// NewWriter returns a trace writer on w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

func (t *Writer) emit(e Event) {
	if t.err != nil {
		return
	}
	// Clamp event times nondecreasing in emission order: wall-clock sources
	// (the live backend) can stamp an event behind its predecessor, and a
	// JSONL trace that runs backwards breaks downstream timeline tools.
	// No-op under monotone virtual time.
	if e.At < t.lastAt {
		e.At = t.lastAt
	}
	t.lastAt = e.At
	if err := t.enc.Encode(e); err != nil {
		t.err = err
		return
	}
	t.events++
}

// Event writes the record of one control-node event: a step completion, a
// commit, a restart (followed by an abort record when a fault caused it), a
// fault transition or a message-timeout retry. Other events leave no
// record.
func (t *Writer) Event(ev engine.Event) {
	at, txn := ev.At.Milliseconds(), ev.Txn
	switch ev.Kind {
	case engine.EvStepDone:
		st := txn.Steps[ev.Step]
		t.emit(Event{
			At: at, Kind: "step", Txn: txn.ID,
			Step: ptr(ev.Step), File: ptr(int(st.File)), Write: st.Write,
		})
	case engine.EvCommit:
		t.emit(Event{
			At: at, Kind: "commit", Txn: txn.ID,
			RTms: (ev.At - txn.Arrival).Milliseconds(), Restarts: txn.Restarts,
			Cost: txn.TotalCost(),
		})
	case engine.EvAbort:
		t.emit(Event{At: at, Kind: "restart", Txn: txn.ID, Restarts: txn.Restarts})
		if ev.Reason != "" {
			t.emit(Event{At: at, Kind: "abort", Txn: txn.ID, Reason: ev.Reason, Restarts: txn.Restarts})
		}
	case engine.EvFault:
		t.emit(Event{At: at, Kind: "fault", Fault: ev.Fault, Node: ptr(ev.Node)})
	case engine.EvRetry:
		t.emit(Event{At: at, Kind: "retry", Txn: txn.ID, Attempt: ev.Attempt})
	}
}

// Events returns the number of events emitted so far.
func (t *Writer) Events() int { return t.events }

// Flush drains buffered output and reports any write error encountered.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// Read parses a JSONL trace back into events (for tests and tools).
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: line %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}
