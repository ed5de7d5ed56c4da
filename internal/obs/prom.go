package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"batchsched/internal/sim"
)

// WritePrometheus renders the registry's current state in the Prometheus
// text exposition format (version 0.0.4). now is the clock reading the
// trailing-window rates end at. It reads stored values only (never a gauge
// callback), so it may run while the run writes the registry. Output order
// is deterministic: families in first-registration order, instances in
// registration order. A counter renders as the counter name_total, plus
// the gauge name_per_sec when it has a rate window; a histogram as
// cumulative name_bucket samples, name_sum and name_count. Every sample
// carries the constant labels. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer, now sim.Time) error {
	if r == nil {
		return nil
	}
	consts, items := r.snapshot()
	bw := bufio.NewWriter(w)
	sample := func(name, labels, v string) {
		if labels = joinLabels(consts, labels); labels == "" {
			fmt.Fprintf(bw, "%s %s\n", name, v)
		} else {
			fmt.Fprintf(bw, "%s{%s} %s\n", name, labels, v)
		}
	}
	family := func(name, help, typ string) {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	fv := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	done := map[string]bool{}
	for _, first := range items {
		if done[first.name] {
			continue
		}
		done[first.name] = true
		var group []*desc
		for _, d := range items {
			if d.name == first.name {
				group = append(group, d)
			}
		}
		switch first.kind {
		case kindCounter:
			family(first.name+"_total", first.help, "counter")
			for _, d := range group {
				sample(first.name+"_total", d.labels, strconv.FormatInt(d.c.Value(), 10))
			}
			if first.c.slots != nil {
				family(first.name+"_per_sec", first.help+" (trailing-window rate)", "gauge")
				for _, d := range group {
					sample(first.name+"_per_sec", d.labels, fv(d.c.RatePerSec(now)))
				}
			}
		case kindGauge:
			family(first.name, first.help, "gauge")
			for _, d := range group {
				sample(first.name, d.labels, fv(d.g.Value()))
			}
		case kindHistogram:
			family(first.name, first.help, "histogram")
			for _, d := range group {
				var cum uint64
				for i, c := range d.h.Counts() {
					cum += c
					le := "+Inf"
					if i < len(d.h.bounds) {
						le = fv(d.h.bounds[i])
					}
					sample(first.name+"_bucket", joinLabels(d.labels, fmt.Sprintf("le=%q", le)), strconv.FormatUint(cum, 10))
				}
				sample(first.name+"_sum", d.labels, fv(d.h.Sum()))
				sample(first.name+"_count", d.labels, strconv.FormatUint(cum, 10))
			}
		}
	}
	return bw.Flush()
}

var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)(\s+-?\d+)?$`)
	promTypes    = map[string]bool{"counter": true, "gauge": true, "summary": true, "histogram": true, "untyped": true}
)

// ValidatePrometheus checks that r is well-formed Prometheus text
// exposition format: HELP/TYPE comment syntax, known metric types, legal
// metric names, parseable sample values, and every sample preceded by a
// TYPE declaration for its family (accounting for the _sum/_count/_bucket
// and _total suffixes summaries, histograms and counters add). It is the
// checker behind the golden-format test and batchsim's -serve wiring test.
func ValidatePrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	typed := map[string]string{}
	line := 0
	samples := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case strings.TrimSpace(text) == "":
			continue
		case strings.HasPrefix(text, "# HELP "):
			f := strings.Fields(text)
			if len(f) < 3 || !promNameRe.MatchString(f[2]) {
				return fmt.Errorf("line %d: malformed HELP comment %q", line, text)
			}
		case strings.HasPrefix(text, "# TYPE "):
			f := strings.Fields(text)
			if len(f) != 4 || !promNameRe.MatchString(f[2]) {
				return fmt.Errorf("line %d: malformed TYPE comment %q", line, text)
			}
			if !promTypes[f[3]] {
				return fmt.Errorf("line %d: unknown metric type %q", line, f[3])
			}
			typed[f[2]] = f[3]
		case strings.HasPrefix(text, "#"):
			continue // free-form comment
		default:
			m := promSampleRe.FindStringSubmatch(text)
			if m == nil {
				return fmt.Errorf("line %d: malformed sample line %q", line, text)
			}
			if _, err := strconv.ParseFloat(m[3], 64); err != nil {
				if m[3] != "+Inf" && m[3] != "-Inf" && m[3] != "NaN" {
					return fmt.Errorf("line %d: unparseable sample value %q", line, m[3])
				}
			}
			name := m[1]
			family := name
			for _, suf := range []string{"_sum", "_count", "_bucket"} {
				if strings.HasSuffix(name, suf) {
					if _, ok := typed[strings.TrimSuffix(name, suf)]; ok {
						family = strings.TrimSuffix(name, suf)
					}
				}
			}
			if _, ok := typed[family]; !ok {
				return fmt.Errorf("line %d: sample %q has no preceding TYPE declaration", line, name)
			}
			samples++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples found")
	}
	return nil
}
