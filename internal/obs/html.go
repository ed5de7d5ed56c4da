package obs

import (
	"fmt"
	"io"
	"strings"

	"batchsched/internal/report"
)

// HTMLSections renders one observer's recording as standalone HTML
// fragments (phase-breakdown table, utilization timelines, gauge and
// counter time-series, histograms), ready for report.HTMLDocument. label
// prefixes the section headings so several observers (one per scheduler)
// can share a page.
func (o *Observer) HTMLSections(label string) []string {
	if o == nil {
		return nil
	}
	var out []string
	if label != "" {
		out = append(out, "<h2>"+htmlEscape(label)+"</h2>")
	}

	if phases := o.PhaseTotals("txn"); len(phases) > 0 {
		t := &report.Table{
			Title:  "Phase breakdown (virtual time across all transactions)",
			Header: []string{"phase", "total (s)", "spans", "mean (ms)"},
		}
		for _, p := range phases {
			mean := 0.0
			if p.Count > 0 {
				mean = p.Total.Milliseconds() / float64(p.Count)
			}
			t.AddRow(p.Name, report.F(p.Total.Seconds(), 1),
				fmt.Sprint(p.Count), report.F(mean, 1))
		}
		out = append(out, t.HTML())
	}

	// Cumulative "*_busy_ms" gauges become utilization timelines; other
	// gauges and all counters plot raw.
	var util, raw, counters report.Chart
	util = report.Chart{Title: "Utilization (fraction busy per sample interval)", XLabel: "virtual time (s)", YLabel: "util", YMax: 1}
	raw = report.Chart{Title: "Gauges", XLabel: "virtual time (s)"}
	counters = report.Chart{Title: "Counters (cumulative)", XLabel: "virtual time (s)"}
	for col, c := range o.cols {
		if len(o.rows) < 2 {
			break
		}
		xs := make([]float64, len(o.rows))
		vs := make([]float64, len(o.rows))
		for i, row := range o.rows {
			xs[i], vs[i] = row[0]/1000, row[col+1] // ms -> s
		}
		switch {
		case strings.Contains(c.name, "_busy_ms"):
			// Difference the cumulative busy time into per-interval
			// utilization, plotted at the interval's end tick.
			uy := make([]float64, len(vs)-1)
			for i := 1; i < len(vs); i++ {
				if dt := o.rows[i][0] - o.rows[i-1][0]; dt > 0 {
					uy[i-1] = (vs[i] - vs[i-1]) / dt
				}
			}
			util.Series = append(util.Series, report.Series{
				Name: strings.Replace(c.name, "_busy_ms", "", 1), X: xs[1:], Y: uy})
		case c.counter:
			counters.Series = append(counters.Series, report.Series{Name: c.name, X: xs, Y: vs})
		default:
			raw.Series = append(raw.Series, report.Series{Name: c.name, X: xs, Y: vs})
		}
	}
	for _, c := range []*report.Chart{&util, &raw, &counters} {
		if len(c.Series) > 0 {
			out = append(out, c.SVG(760, 240))
		}
	}

	for _, h := range o.reg.histograms() {
		t := &report.Table{
			Title:  "Histogram: " + h.name,
			Note:   fmt.Sprintf("count=%d sum=%s mean=%s", h.Count(), report.F(h.Sum(), 1), report.F(h.Mean(), 2)),
			Header: []string{"le", "count"},
		}
		for i, c := range h.Counts() {
			le := "+Inf"
			if i < len(h.bounds) {
				le = report.F(h.bounds[i], 6)
			}
			t.AddRow(le, fmt.Sprint(c))
		}
		out = append(out, t.HTML())
	}

	if n := len(o.audit.entries); n > 0 {
		out = append(out, fmt.Sprintf("<p class=\"note\">%d audited scheduler decisions (export with --audit for the full JSONL log).</p>", n))
	}
	return out
}

// WriteHTMLReport renders the recording as one self-contained HTML page.
func (o *Observer) WriteHTMLReport(w io.Writer, title string) error {
	_, err := io.WriteString(w, report.HTMLDocument(title, o.HTMLSections("")...))
	return err
}

// htmlEscape escapes the few characters that matter in our headings.
func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
