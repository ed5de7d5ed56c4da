package main

import (
	"errors"
	"io"
	"os"

	"batchsched"
)

// outputs names the files one recorded simulator run writes ("" skips
// one), with the metrics sampling interval and the HTML report's title.
type outputs struct {
	trace, chrome, metrics, audit, report string
	interval                              batchsched.Time
	title                                 string
}

// recordedRun runs one simulation at seed with every recorder the flags
// ask for — the serializability check, the JSONL trace, the observability
// layer — and writes their files. A failed check is returned after the
// files are written, so the failing run can be inspected.
func recordedRun(cfg batchsched.Config, schedName string, params batchsched.Params, gen batchsched.Generator, seed int64, check bool, out outputs) (batchsched.Summary, error) {
	var ob *batchsched.Obs
	if out.chrome != "" || out.metrics != "" || out.audit != "" || out.report != "" {
		ob = batchsched.NewObs()
		ob.SetSampleInterval(out.interval)
	}
	var w io.Writer
	var tf *os.File
	if out.trace != "" {
		var err error
		if tf, err = os.Create(out.trace); err != nil {
			return batchsched.Summary{}, err
		}
		w = tf
	}
	sum, err := batchsched.RunRecorded(cfg, schedName, params, gen, seed, check, w, ob)
	if tf != nil {
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil && !errors.Is(err, batchsched.ErrNotSerializable) {
		return sum, err
	}
	for _, x := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{out.chrome, ob.WriteChromeTrace},
		{out.metrics, ob.WriteMetricsCSV},
		{out.audit, ob.WriteAuditJSONL},
		{out.report, func(w io.Writer) error { return ob.WriteHTMLReport(w, out.title) }},
	} {
		if x.path == "" {
			continue
		}
		f, ferr := os.Create(x.path)
		if ferr == nil {
			ferr = x.write(f)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		if ferr != nil {
			return sum, ferr
		}
	}
	return sum, err
}
