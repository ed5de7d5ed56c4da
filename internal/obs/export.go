package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Chrome trace_event pid layout: transactions live in one synthetic
// process (tid = transaction id), the control node in another (a single
// serial CPU, tid 0), and each data-processing node in its own process
// with tid = transaction id, so per-(pid,tid) spans never overlap and
// chrome://tracing / Perfetto nest them correctly.
const (
	pidTxn     = 1
	pidCN      = 2
	pidDPNBase = 10
)

// traceEvent is one Chrome trace_event record ("X" complete events plus
// "M" metadata for process names).
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// tracePlacement maps a span onto the pid/tid layout.
func tracePlacement(sp Span) (pid int, tid int64) {
	switch sp.Cat {
	case "cn":
		return pidCN, 0
	case "io":
		return pidDPNBase + int(sp.Node), sp.Txn
	default:
		return pidTxn, sp.Txn
	}
}

// WriteChromeTrace renders the recorded spans as Chrome trace_event JSON
// (the object form: {"traceEvents": [...], "displayTimeUnit": "ms"}).
// Timestamps are virtual microseconds, which is exactly the unit the
// format expects. Output is deterministic: metadata first (ascending pid),
// then spans in recording order.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(&noNewline{bw})
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}

	// Process-name metadata for every pid in use, ascending.
	pids := map[int]string{}
	for _, sp := range o.spans {
		pid, _ := tracePlacement(sp)
		if _, ok := pids[pid]; ok {
			continue
		}
		switch {
		case pid == pidTxn:
			pids[pid] = "transactions"
		case pid == pidCN:
			pids[pid] = "control-node"
		default:
			pids[pid] = "dpn-" + strconv.Itoa(pid-pidDPNBase)
		}
	}
	for pid := 0; len(pids) > 0 && pid <= maxKey(pids); pid++ {
		name, ok := pids[pid]
		if !ok {
			continue
		}
		err := emit(traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": name},
		})
		if err != nil {
			return err
		}
		delete(pids, pid)
	}

	for _, sp := range o.spans {
		pid, tid := tracePlacement(sp)
		ev := traceEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: int64(sp.Start), Dur: int64(sp.Duration()),
			Pid: pid, Tid: tid,
		}
		if sp.Txn != 0 || sp.Extra >= 0 {
			ev.Args = map[string]string{}
			if sp.Txn != 0 {
				ev.Args["txn"] = strconv.FormatInt(sp.Txn, 10)
			}
			if sp.Extra >= 0 {
				ev.Args["step"] = strconv.Itoa(int(sp.Extra))
			}
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, `],"displayTimeUnit":"ms"}`+"\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func maxKey(m map[int]string) int {
	max := 0
	for k := range m {
		if k > max {
			max = k
		}
	}
	return max
}

// noNewline strips the trailing newline json.Encoder appends, keeping the
// event array compact (one event per element, no blank separators).
type noNewline struct{ w io.Writer }

func (n *noNewline) Write(p []byte) (int, error) {
	m := len(p)
	for m > 0 && p[m-1] == '\n' {
		m--
	}
	if _, err := n.w.Write(p[:m]); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteMetricsCSV renders the sampled time-series as CSV (header then one
// row per tick), followed by the histograms as comment lines of the form
// "# histogram,<name>,<le>,<count>" (le "+Inf" for the overflow bucket)
// and "# histogram_summary,<name>,<count>,<sum>".
func (o *Observer) WriteMetricsCSV(w io.Writer) error {
	if o == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	hdr := o.SampleHeader()
	for i, h := range hdr {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(h)
	}
	bw.WriteByte('\n')
	for _, row := range o.rows {
		for i, v := range row {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		bw.WriteByte('\n')
	}
	for _, h := range o.reg.histograms() {
		for i, c := range h.Counts() {
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			fmt.Fprintf(bw, "# histogram,%s,%s,%d\n", h.name, le, c)
		}
		fmt.Fprintf(bw, "# histogram_summary,%s,%d,%s\n",
			h.name, h.Count(), strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	}
	return bw.Flush()
}

// WriteAuditJSONL renders the scheduler decision audit as JSON Lines, one
// decision per line, in decision order.
func (o *Observer) WriteAuditJSONL(w io.Writer) error {
	if o == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range o.audit.entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
