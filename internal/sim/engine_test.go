package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second != 1_000_000 {
		t.Fatalf("Second = %d µs, want 1e6", int64(Second))
	}
	if got := FromMilliseconds(1.5); got != 1500 {
		t.Errorf("FromMilliseconds(1.5) = %d, want 1500", int64(got))
	}
	if got := FromSeconds(0.001); got != Millisecond {
		t.Errorf("FromSeconds(0.001) = %v, want 1ms", got)
	}
	if got := (70 * Second).Seconds(); got != 70 {
		t.Errorf("Seconds() = %v, want 70", got)
	}
	if got := (200 * Millisecond).Milliseconds(); got != 200 {
		t.Errorf("Milliseconds() = %v, want 200", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500s" {
		t.Errorf("String() = %q", s)
	}
}

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*Millisecond, func(Time) { order = append(order, 3) })
	e.Schedule(10*Millisecond, func(Time) { order = append(order, 1) })
	e.Schedule(20*Millisecond, func(Time) { order = append(order, 2) })
	e.Run(Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30*Millisecond {
		t.Errorf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Millisecond, func(Time) { order = append(order, i) })
	}
	e.Run(Second)
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-break order = %v, want scheduling order", order)
		}
	}
}

func TestEngineHorizonStopsDispatch(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10*Millisecond, func(Time) { fired++ })
	e.Schedule(90*Millisecond, func(Time) { fired++ })
	e.Run(50 * Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (horizon must hold back later events)", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(200 * Millisecond)
	if fired != 2 || e.Now() != 200*Millisecond {
		t.Errorf("after RunUntil: fired=%d now=%v", fired, e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10*Millisecond, func(Time) { fired = true })
	ev.Cancel()
	e.Run(Second)
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	if e.Executed() != 0 {
		t.Errorf("Executed = %d, want 0", e.Executed())
	}
}

func TestEngineEventsScheduledDuringDispatch(t *testing.T) {
	e := NewEngine()
	var times []Time
	var chain Handler
	chain = func(now Time) {
		times = append(times, now)
		if len(times) < 5 {
			e.Schedule(7*Millisecond, chain)
		}
	}
	e.Schedule(0, chain)
	e.Run(Second)
	if len(times) != 5 {
		t.Fatalf("chain length = %d, want 5", len(times))
	}
	for i, ts := range times {
		if want := Time(i) * 7 * Millisecond; ts != want {
			t.Errorf("times[%d] = %v, want %v", i, ts, want)
		}
	}
}

func TestEngineZeroDelaySameTimeRunsAfterCurrent(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(Millisecond, func(Time) {
		order = append(order, "a")
		e.Schedule(0, func(Time) { order = append(order, "b") })
		order = append(order, "a-end")
	})
	e.Run(Second)
	want := []string{"a", "a-end", "b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEnginePanicsOnNegativeDelayAndNilHandler(t *testing.T) {
	e := NewEngine()
	mustPanic(t, func() { e.Schedule(-1, func(Time) {}) })
	mustPanic(t, func() { e.Schedule(1, nil) })
	mustPanic(t, func() {
		e.now = 10
		e.ScheduleAt(5, func(Time) {})
	})
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// Property: events always fire in nondecreasing time order regardless of the
// scheduling sequence.
func TestEngineMonotonicDispatchProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d)*Microsecond, func(now Time) { fired = append(fired, now) })
		}
		e.Run(Time(1 << 30))
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSchedulePrioOrdersTies(t *testing.T) {
	e := NewEngine()
	var order []string
	// At t=30ms three events tie. The prio events were booked first (so have
	// the smaller seq) but must fire in prio order, interleaving with the
	// plain booking which carries prio = its booking time (0).
	e.ScheduleAtPrio(30*Millisecond, 20*Millisecond, func(Time) { order = append(order, "p20") })
	e.ScheduleAtPrio(30*Millisecond, 10*Millisecond, func(Time) { order = append(order, "p10") })
	e.Schedule(30*Millisecond, func(Time) { order = append(order, "plain0") })
	e.Run(Second)
	want := []string{"plain0", "p10", "p20"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSchedulePrioPastPriority(t *testing.T) {
	e := NewEngine()
	e.Schedule(50*Millisecond, func(now Time) {
		// A stand-in for work already under way: prio before now is legal...
		e.ScheduleAtPrio(80*Millisecond, 20*Millisecond, func(Time) {})
	})
	e.Run(Second)
	// ...but the event time itself must not rewind, and prio must not lie
	// after the event.
	mustPanic(t, func() { e.ScheduleAtPrio(e.Now()-1, 0, func(Time) {}) })
	mustPanic(t, func() { e.ScheduleAtPrio(e.Now()+10, e.Now()+20, func(Time) {}) })
	mustPanic(t, func() { e.ScheduleAtPrio(e.Now()+10, 0, nil) })
}

// Property: with random (at, prio <= at) pairs, dispatch follows the
// documented (at, prio, seq) total order.
func TestEnginePrioDispatchOrderProperty(t *testing.T) {
	g := NewRNG(31)
	e := NewEngine()
	type key struct {
		at, prio Time
		seq      int
	}
	var fired []key
	const n = 3000
	for i := 0; i < n; i++ {
		i := i
		at := Time(g.Intn(500)) * Millisecond
		prio := Time(g.Intn(int(at/Millisecond)+1)) * Millisecond
		e.ScheduleAtPrio(at, prio, func(Time) { fired = append(fired, key{at, prio, i}) })
	}
	e.Run(Time(1 << 40))
	if len(fired) != n {
		t.Fatalf("dispatched %d, want %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.prio > b.prio) ||
			(a.at == b.at && a.prio == b.prio && a.seq > b.seq) {
			t.Fatalf("out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// Canceling most of the calendar must shrink it (lazy deletion compacts)
// without disturbing the survivors' dispatch order.
func TestEngineCancelCompaction(t *testing.T) {
	e := NewEngine()
	const n = 1000
	events := make([]*Event, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		events[i] = e.Schedule(Time(i+1)*Millisecond, func(Time) { fired = append(fired, i) })
	}
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			events[i].Cancel()
		}
	}
	if e.Pending() >= n {
		t.Fatalf("calendar did not compact: %d pending after canceling 90%%", e.Pending())
	}
	e.Run(Second)
	if len(fired) != n/10 {
		t.Fatalf("fired %d, want %d", len(fired), n/10)
	}
	for j, i := range fired {
		if i != j*10 {
			t.Fatalf("fired order = %v..., want multiples of 10 in order", fired[:j+1])
		}
	}
	if e.Executed() != uint64(n/10) {
		t.Errorf("Executed = %d, want %d", e.Executed(), n/10)
	}
}

// Differential stress: random schedule/cancel traffic must dispatch exactly
// the live events, in exactly the (at, prio, seq) order, no matter how often
// the calendar compacts in between.
func TestEngineCompactionDifferential(t *testing.T) {
	g := NewRNG(77)
	e := NewEngine()
	type rec struct {
		at   Time
		prio Time
		id   int
	}
	var want []rec
	var got []rec
	var live []*Event
	var liveRec []rec
	id := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 200; i++ {
			at := Time(g.Intn(1_000_000))
			prio := Time(g.Intn(int(at) + 1))
			r := rec{at, prio, id}
			id++
			ev := e.ScheduleAtPrio(at, prio, func(Time) { got = append(got, r) })
			live = append(live, ev)
			liveRec = append(liveRec, r)
		}
		// Cancel a random two-thirds of everything still outstanding.
		var keptEv []*Event
		var keptRec []rec
		for i, ev := range live {
			if g.Intn(3) != 0 {
				ev.Cancel()
				continue
			}
			keptEv = append(keptEv, ev)
			keptRec = append(keptRec, liveRec[i])
		}
		live, liveRec = keptEv, keptRec
	}
	_ = live
	want = append(want, liveRec...)
	e.Run(Time(1 << 40))
	if len(got) != len(want) {
		t.Fatalf("dispatched %d, want %d", len(got), len(want))
	}
	// The surviving events must come out sorted by (at, prio, booking order).
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		if want[i].prio != want[j].prio {
			return want[i].prio < want[j].prio
		}
		return want[i].id < want[j].id
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// tieScriptBooking is one pre-generated booking of the tie-order property
// test: a calendar key plus an optional immediate cancel-and-rebook (which
// leaves a tombstone on the calendar).
type tieScriptBooking struct {
	at, prio Time
	tie      TieKey
	hasTie   bool
	rebook   bool
	alt      *tieScriptBooking
}

// genTieScript generates per-chain booking sequences over shared "buckets":
// instants where several chains collide with equal (at, prio) and tie keys
// that differ only in genealogy. Keys follow the machine's invariants — one
// quantum per bucket, anchors that are strictly short slices (Pre > Anchor-Q),
// globally unique stamps — under which tieLess is a total order.
func genTieScript(g *RNG, chains, perChain int) [][]tieScriptBooking {
	type bucket struct {
		at, prio, q Time
	}
	nBuckets := perChain*3 + 8
	buckets := make([]bucket, nBuckets)
	at := Time(10)
	for b := range buckets {
		// Buckets advance by more than the largest priority offset, so a
		// successor booked at one bucket's instant always lies at a later
		// instant with a later priority, as in the DPN model. Same-instant
		// collisions come from chains sharing a bucket.
		at += Time(4 + g.Intn(4))
		q := Time(2 + g.Intn(3))
		buckets[b] = bucket{at: at, prio: at - Time(1+g.Intn(3)), q: q}
	}
	var stamp uint64
	member := func(b bucket) tieScriptBooking {
		m := tieScriptBooking{at: b.at}
		if g.Intn(8) == 0 {
			// An untied booking: keep its prio clear of the bucket's tie
			// events (mixing tied and untied events at one (at, prio) has
			// no model counterpart and no total order).
			p := b.prio - Time(4+g.Intn(3))
			if p < 0 {
				p = 0
			}
			m.prio = p
			return m
		}
		m.prio = b.prio
		m.hasTie = true
		k := Time(g.Intn(3))
		anchor := b.prio - k*b.q
		// Short-slice anchor: Anchor-Q < Pre < Anchor, as in real chains.
		pre := anchor - b.q + 1 + Time(g.Intn(int(b.q)-1))
		stamp++
		m.tie = TieKey{Q: b.q, Anchor: anchor, Pre: pre, Stamp: stamp}
		return m
	}
	script := make([][]tieScriptBooking, chains)
	for s := range script {
		script[s] = make([]tieScriptBooking, perChain)
		b := g.Intn(3)
		for k := 0; k < perChain; k++ {
			m := member(buckets[b])
			if g.Intn(6) == 0 {
				alt := member(buckets[b])
				m.rebook = true
				m.alt = &alt
			}
			script[s][k] = m
			b += 1 + g.Intn(2)
		}
	}
	return script
}

// playTieScript books every chain on the engine (each handler booking its
// successor, as the DPN model does) and returns the dispatch order as
// chain*perChain+index codes.
func playTieScript(script [][]tieScriptBooking) []int {
	e := NewEngine()
	perChain := len(script[0])
	var order []int
	book := func(m *tieScriptBooking, fn Handler) *Event {
		if m.hasTie {
			return e.ScheduleAtTie(m.at, m.prio, m.tie, fn)
		}
		return e.ScheduleAtPrio(m.at, m.prio, fn)
	}
	var handler func(s, k int) Handler
	handler = func(s, k int) Handler {
		return func(Time) {
			order = append(order, s*perChain+k)
			if k+1 >= perChain {
				return
			}
			next := &script[s][k+1]
			ev := book(next, handler(s, k+1))
			if next.rebook {
				ev.Cancel()
				book(next.alt, handler(s, k+1))
			}
		}
	}
	for s := range script {
		book(&script[s][0], handler(s, 0))
	}
	e.Run(Time(1) << 50)
	return order
}

// refEntry is one booking on the reference calendar.
type refEntry struct {
	at, prio Time
	tie      TieKey
	hasTie   bool
	seq      uint64
	code     int
}

func refLess(a, b *refEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.hasTie && b.hasTie {
		if l, ok := tieLess(a.prio, &a.tie, &b.tie); ok {
			return l
		}
	}
	return a.seq < b.seq
}

// playTieReference replays the script on a naive calendar: an unordered
// slice scanned in full for the (time, prio, tie, seq) minimum at every
// dispatch. It has no heap to corrupt, so it is the order the heap must pop.
func playTieReference(script [][]tieScriptBooking) []int {
	perChain := len(script[0])
	var pending []*refEntry
	var seq uint64
	book := func(code int, m *tieScriptBooking) {
		seq++
		pending = append(pending, &refEntry{at: m.at, prio: m.prio, tie: m.tie, hasTie: m.hasTie, seq: seq, code: code})
	}
	for s := range script {
		book(s*perChain, &script[s][0])
	}
	var order []int
	for len(pending) > 0 {
		best := 0
		for i := 1; i < len(pending); i++ {
			if refLess(pending[i], pending[best]) {
				best = i
			}
		}
		ev := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		order = append(order, ev.code)
		s, k := ev.code/perChain, ev.code%perChain
		if k+1 >= perChain {
			continue
		}
		next := &script[s][k+1]
		book(ev.code+1, next)
		if next.rebook {
			pending = pending[:len(pending)-1] // canceled: its seq stays spent
			book(ev.code+1, next.alt)
		}
	}
	return order
}

// TestMergedCalendarTieOrderMatchesReference is the calendar's tie-order
// property test: randomized same-instant ties (including keys identical up
// to the dispatch stamp, the case that once regressed when tie keys were
// patched in after the heap sift) must dispatch in exactly the order a
// linear-scan calendar over the same key produces.
func TestMergedCalendarTieOrderMatchesReference(t *testing.T) {
	const chains, perChain = 6, 300
	for trial := 0; trial < 25; trial++ {
		g := NewRNG(int64(9000 + trial))
		script := genTieScript(g, chains, perChain)
		want := playTieReference(script)
		got := playTieScript(script)
		if len(got) != len(want) {
			t.Fatalf("trial %d: dispatched %d events, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: dispatch[%d] = chain %d event %d, reference had chain %d event %d",
					trial, i, got[i]/perChain, got[i]%perChain, want[i]/perChain, want[i]%perChain)
			}
		}
	}
}

// TestEngineCompactionMidDispatch forces tombstone compaction from inside a
// running handler — the calendar is rebuilt while the engine is mid-Step —
// and checks that the surviving dispatch order and Executed() come through
// unscathed.
func TestEngineCompactionMidDispatch(t *testing.T) {
	e := NewEngine()
	const n = 400
	events := make([]*Event, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		events[i] = e.Schedule(Time(i+10)*Millisecond, func(Time) { fired = append(fired, i) })
	}
	// The first event cancels events 1..n-2 from inside its handler; that
	// puts ~n-2 tombstones on a calendar of n live-or-dead entries, well
	// past the dead >= 64 && dead*2 > Len() threshold, so maybeCompact
	// rebuilds the heap during this very dispatch.
	pendingBefore := 0
	e.Schedule(Millisecond, func(Time) {
		for i := 1; i < n-1; i++ {
			events[i].Cancel()
		}
		pendingBefore = e.Pending()
	})
	e.Run(Second)
	if pendingBefore >= n {
		t.Fatalf("compaction did not run mid-dispatch: %d pending right after the cancels", pendingBefore)
	}
	if want := []int{0, n - 1}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	// 1 canceler + 2 survivors.
	if e.Executed() != 3 {
		t.Errorf("Executed = %d, want 3", e.Executed())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after run, want 0", e.Pending())
	}
}

// TestEngineExecutedUnderHeavyLazyDeletion cancels interleaved events from
// inside handlers so the calendar is thick with tombstones while it drains,
// and checks that Executed() stays dense — every handler observes exactly
// the count of live dispatches so far, with canceled events never counted.
// Tie-key stamps are derived from Executed(), so a gap here would corrupt
// genealogy keys silently.
func TestEngineExecutedUnderHeavyLazyDeletion(t *testing.T) {
	e := NewEngine()
	const n = 900
	events := make([]*Event, n)
	fired := 0
	for i := 0; i < n; i++ {
		i := i
		events[i] = e.Schedule(Time(i+1)*Millisecond, func(Time) {
			fired++
			if got := e.Executed(); got != uint64(fired) {
				t.Fatalf("handler %d: Executed = %d, want %d", i, got, fired)
			}
			// Cancel the next two still-pending survivors, so roughly two
			// thirds of the calendar dies as tombstones mid-drain.
			for j, killed := i+1, 0; j < n && killed < 2; j++ {
				if events[j] != nil && !events[j].Canceled() {
					events[j].Cancel()
					killed++
				}
			}
		})
	}
	e.Run(Second)
	if fired != (n+2)/3 {
		t.Fatalf("fired %d of %d, want every third (%d)", fired, n, (n+2)/3)
	}
	if e.Executed() != uint64(fired) {
		t.Errorf("Executed = %d, want %d", e.Executed(), fired)
	}
}

// TestEngineSteadyStateAllocFree pins the allocation audit at the engine
// layer: a warmed engine running self-rebooking tie-keyed chains with
// cancel-and-rebook churn, a recurring payload event and a recurring plain
// event must dispatch with zero allocations per event.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	const chains = 4
	handlers := make([]Handler, chains)
	fires := make([]int, chains)
	for s := 0; s < chains; s++ {
		s := s
		handlers[s] = func(now Time) {
			fires[s]++
			at := now + Time(s+1)*Millisecond
			tie := TieKey{Q: Millisecond, Anchor: now, Pre: now - 1, Stamp: e.Executed()}
			ev := e.ScheduleAtTie(at, now, tie, handlers[s])
			if fires[s]%7 == 0 {
				// Cancel-and-rebook: the canceled booking stays as a
				// tombstone, the replacement comes off the event free list.
				ev.Cancel()
				e.ScheduleAtTie(at+Millisecond, now, tie, handlers[s])
			}
		}
	}
	var tick func(now Time)
	ticks := 0
	tick = func(now Time) {
		ticks++
		e.Schedule(5*Millisecond, tick)
	}
	payloads := 0
	var onPayload PayloadHandler
	onPayload = func(now Time, arg any) {
		payloads++
		e.SchedulePayload(3*Millisecond, onPayload, arg)
	}
	for s := 0; s < chains; s++ {
		e.ScheduleAtPrio(Time(s+1)*Millisecond, 0, handlers[s])
	}
	e.Schedule(5*Millisecond, tick)
	e.SchedulePayload(3*Millisecond, onPayload, &fires)
	// Warm the free lists and heap capacity.
	horizon := Time(0)
	step := func() {
		horizon += 50 * Millisecond
		for e.Step(horizon) {
		}
	}
	step()
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("steady-state allocations: %v per 50ms window, want 0", avg)
	}
	if ticks == 0 || payloads == 0 || fires[0] == 0 {
		t.Fatal("steady-state loop did not actually run")
	}
}

func TestRNGDeterminismAndStreams(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical sequences")
		}
	}
	s1 := NewRNG(42).Stream("arrivals")
	s2 := NewRNG(42).Stream("arrivals")
	s3 := NewRNG(42).Stream("files")
	if s1.Float64() != s2.Float64() {
		t.Fatal("same stream name must be reproducible")
	}
	if s1.Seed() == s3.Seed() {
		t.Fatal("different stream names must derive different seeds")
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exp(1.2)
	}
	mean := sum / n
	if math.Abs(mean-1/1.2) > 0.01 {
		t.Errorf("Exp(1.2) mean = %v, want ~%v", mean, 1/1.2)
	}
}

func TestRNGNormMoments(t *testing.T) {
	g := NewRNG(11)
	const n = 200000
	sum, sq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := g.Norm(0, 2)
		sum += x
		sq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(sd-2) > 0.03 {
		t.Errorf("Norm sd = %v, want ~2", sd)
	}
}

func TestRNGTwoDistinct(t *testing.T) {
	g := NewRNG(3)
	counts := make(map[int]int)
	for i := 0; i < 20000; i++ {
		a, b := g.TwoDistinct(8)
		if a == b {
			t.Fatal("TwoDistinct returned equal values")
		}
		if a < 0 || a >= 8 || b < 0 || b >= 8 {
			t.Fatalf("out of range: %d %d", a, b)
		}
		counts[a]++
		counts[b]++
	}
	for v, c := range counts {
		if c < 4000 || c > 6000 {
			t.Errorf("value %d drawn %d times, want ~5000 (uniformity)", v, c)
		}
	}
	mustPanic(t, func() { g.TwoDistinct(1) })
	mustPanic(t, func() { g.Exp(0) })
}

func TestRNGExpTime(t *testing.T) {
	g := NewRNG(5)
	const n = 100000
	var total Time
	for i := 0; i < n; i++ {
		total += g.ExpTime(2.0) // 2 events/sec -> mean gap 0.5s
	}
	mean := total.Seconds() / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("ExpTime(2) mean = %v s, want ~0.5", mean)
	}
}

func TestHeapStress(t *testing.T) {
	g := NewRNG(99)
	e := NewEngine()
	const n = 5000
	var last Time = -1
	count := 0
	for i := 0; i < n; i++ {
		e.Schedule(Time(g.Intn(1000))*Millisecond, func(now Time) {
			if now < last {
				t.Errorf("heap emitted out-of-order event: %v after %v", now, last)
			}
			last = now
			count++
		})
	}
	e.Run(Time(1 << 40))
	if count != n {
		t.Fatalf("dispatched %d, want %d", count, n)
	}
}

func TestRNGPerm(t *testing.T) {
	g := NewRNG(17)
	seen := make(map[int]bool)
	p := g.Perm(10)
	if len(p) != 10 {
		t.Fatalf("len = %d", len(p))
	}
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormalCDF(t *testing.T) {
	cases := map[float64]float64{0: 0.5, -1: 0.1587, 1: 0.8413, -0.1: 0.4602}
	for x, want := range cases {
		if got := NormalCDF(x); math.Abs(got-want) > 1e-3 {
			t.Errorf("Φ(%v) = %v, want %v", x, got, want)
		}
	}
}
