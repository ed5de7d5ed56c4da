package live_test

import (
	"bufio"
	"bytes"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"batchsched/internal/engine"
	"batchsched/internal/engine/live"
	"batchsched/internal/machine"
	"batchsched/internal/metrics"
	"batchsched/internal/obs"
	"batchsched/internal/sched"
	"batchsched/internal/sim"
	"batchsched/internal/workload"
)

// liveOnlyFamilies are the metric families only the live backend
// produces: the simulator's DPNs scan no rows, and its virtual clock never
// runs backwards.
var liveOnlyFamilies = map[string]bool{
	"dpn_rows_scanned_total":   true,
	"dpn_rows_scanned_per_sec": true,
	"obs_clock_clamps":         true,
}

// simOnlyFamilies are the metric families only the simulator produces: its
// CN charges the modelled decision CPU, while the live CN spends wall time.
var simOnlyFamilies = map[string]bool{
	"request_cpu_ms": true,
}

// exposition renders o's registry at now, checks it is valid Prometheus
// text without a backend-prefixed name, and returns each family's type and
// each series' value (keyed name{labels}).
func exposition(t *testing.T, o *obs.Observer, now sim.Time) (families map[string]string, series map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Metrics().WritePrometheus(&buf, now); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	families, series = map[string]string{}, map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			families[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "live_") {
			t.Errorf("backend-prefixed series %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		series[line[:i]] = v
	}
	return families, series
}

// checkCountsOnce: each CN transition the summary counts is counted once
// by the registry, whose counters must equal the summary's.
func checkCountsOnce(t *testing.T, backend string, series map[string]float64, sum metrics.Summary) {
	t.Helper()
	for name, want := range map[string]int{
		"grants": sum.GrantedRequests, "blocks": sum.Blocks, "delays": sum.Delays,
		"restarts": sum.Restarts, "commits": sum.Completions,
	} {
		key := name + `_total{backend="` + backend + `"}`
		if got, ok := series[key]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), want the summary's %d", key, got, ok, want)
		}
	}
}

// TestStreamWiring runs a live batch with the observability layer attached
// and checks the registry and the /slo snapshot against the run summary:
// the scrape-side view must agree with the authoritative metrics.
func TestStreamWiring(t *testing.T) {
	const n = 24
	batch := exp1Batch(11, 6, n)
	b, err := live.New(liveConfig(6, 1), sched.MustNew("LOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	b.SetObs(o)
	sum, err := b.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completions != n {
		t.Fatalf("completions = %d, want %d", sum.Completions, n)
	}

	snap := b.Snapshot()
	if snap.Commits != n || snap.Restarts != int64(sum.Restarts) ||
		snap.Grants != int64(sum.GrantedRequests) || snap.Delays != int64(sum.Delays) {
		t.Errorf("snapshot %+v disagrees with summary %+v", snap, sum)
	}
	if snap.ActiveTxns != 0 || snap.WaitingTxns != 0 {
		t.Errorf("active/waiting after drain = %d/%d, want 0/0", snap.ActiveTxns, snap.WaitingTxns)
	}
	if snap.P50RTSeconds <= 0 || snap.P50RTSeconds > snap.P95RTSeconds {
		t.Errorf("RT quantiles: p50=%v p95=%v", snap.P50RTSeconds, snap.P95RTSeconds)
	}

	_, series := exposition(t, o, b.Now())
	checkCountsOnce(t, "live", series, sum)
	for _, want := range []string{
		`response_time_ms_count{backend="live"}`,
		`dpn_rows_scanned_total{backend="live",node="0"}`,
		`dpn_queue{backend="live",node="3"}`, `dpn_busy_ms{backend="live",node="3"}`,
		`obs_clock_clamps{backend="live"}`,
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("exposition missing %s", want)
		}
	}
	if got := series[`response_time_ms_count{backend="live"}`]; got != n {
		t.Errorf("response_time_ms_count = %v, want %d", got, n)
	}
}

// TestStreamDisabledSnapshot: without SetObs, Run works and Snapshot
// returns the zero value.
func TestStreamDisabledSnapshot(t *testing.T) {
	const n = 8
	b, err := live.New(liveConfig(6, 1), sched.MustNew("GOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := b.RunBatch(exp1Batch(3, 6, n))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completions != n {
		t.Fatalf("completions = %d, want %d", sum.Completions, n)
	}
	if snap := b.Snapshot(); snap != (engine.SLOSnapshot{}) {
		t.Fatalf("disabled Snapshot = %+v, want zero value", snap)
	}
}

// TestSameFamiliesBothBackends renders one simulator run and one live run
// of the same batch: both must produce the same metric families, every
// sample labelled with its backend, and count each transition once.
func TestSameFamiliesBothBackends(t *testing.T) {
	const numFiles, n = 6, 16
	batch := exp1Batch(7, numFiles, n)

	simCfg := machine.DefaultConfig()
	simCfg.NumNodes, simCfg.NumFiles, simCfg.DD = 8, numFiles, 1
	simCfg.ArrivalRate = 0
	simCfg.Duration = 4 * 3_600_000 * sim.Millisecond // horizon, not a target
	m, err := machine.New(simCfg, sched.MustNew("GOW", sched.DefaultParams()), nil, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	so := obs.New()
	m.SetObs(so)
	simSum, err := m.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	b, err := live.New(liveConfig(numFiles, 1), sched.MustNew("GOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	lo := obs.New()
	b.SetObs(lo)
	liveSum, err := b.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	simFam, simSeries := exposition(t, so, m.Now())
	liveFam, liveSeries := exposition(t, lo, b.Now())
	checkCountsOnce(t, "sim", simSeries, simSum)
	checkCountsOnce(t, "live", liveSeries, liveSum)
	for name, typ := range liveFam {
		if liveOnlyFamilies[name] {
			if _, ok := simFam[name]; ok {
				t.Errorf("live-only family %s appears in the sim run", name)
			}
		} else if simFam[name] != typ {
			t.Errorf("family %s: live %s, sim %q", name, typ, simFam[name])
		}
	}
	for name := range simFam {
		_, ok := liveFam[name]
		switch {
		case simOnlyFamilies[name] && ok:
			t.Errorf("sim-only family %s appears in the live run", name)
		case !simOnlyFamilies[name] && !ok:
			t.Errorf("family %s only in the sim run", name)
		}
	}
	for backend, series := range map[string]map[string]float64{"sim": simSeries, "live": liveSeries} {
		for key := range series {
			if !strings.Contains(key, `{backend="`+backend+`"`) {
				t.Errorf("%s series %s lacks its backend label", backend, key)
			}
		}
	}
	if t.Failed() {
		names := make([]string, 0, len(simFam))
		for name := range simFam {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Logf("sim families: %v", names)
	}
}

// scrapeWhile renders o's registry and takes b's snapshot in a loop until
// run returns: under -race, the check that a scrape never touches state the
// run goroutines write.
func scrapeWhile(t *testing.T, b *live.Backend, o *obs.Observer, run func()) {
	t.Helper()
	done := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scrapes <- n
				return
			default:
			}
			var buf bytes.Buffer
			if err := o.Metrics().WritePrometheus(&buf, b.Now()); err != nil {
				t.Error(err)
			}
			b.Snapshot()
			n++
			time.Sleep(time.Millisecond)
		}
	}()
	run()
	close(done)
	if n := <-scrapes; n == 0 {
		t.Fatal("no scrape ran during the run")
	}
	if _, series := exposition(t, o, b.Now()); series[`commits_total{backend="live"}`] == 0 {
		t.Fatal("no commits counted")
	}
}

func TestScrapeDuringLiveBatch(t *testing.T) {
	cfg := liveConfig(6, 2)
	cfg.PacePerObject = 200 * time.Microsecond
	b, err := live.New(cfg, sched.MustNew("LOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	o.SetSampleInterval(sim.Millisecond)
	b.SetObs(o)
	scrapeWhile(t, b, o, func() {
		if _, err := b.RunBatch(exp1Batch(5, 6, 24)); err != nil {
			t.Error(err)
		}
	})
}

func TestScrapeDuringLiveService(t *testing.T) {
	cfg := svcLiveConfig(400 * time.Millisecond)
	b, err := live.New(cfg, sched.MustNew("GOW", sched.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewMetricsOnly()
	o.SetSampleInterval(sim.Millisecond)
	b.SetObs(o)
	scrapeWhile(t, b, o, func() {
		b.RunService(workload.NewExp1(cfg.NumFiles), workload.Poisson{Rate: 100}, 3)
		if err := b.Err(); err != nil {
			t.Error(err)
		}
	})
	if len(o.Spans()) != 0 || len(o.Samples()) != 0 {
		t.Fatalf("metrics-only service run kept %d spans and %d rows", len(o.Spans()), len(o.Samples()))
	}
	fam, _ := exposition(t, o, b.Now())
	for _, name := range []string{"sheds_total", "admit_queue_depth", "admit_p95_sojourn_ms"} {
		if _, ok := fam[name]; !ok {
			t.Errorf("service run lacks family %s", name)
		}
	}
}
