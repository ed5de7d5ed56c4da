package admit

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"batchsched/internal/sim"
)

func testPolicy() Policy {
	p := DefaultPolicy()
	p.MaxQueue = 4
	p.SojournWindow = 8
	return p
}

func mustService(t *testing.T, p Policy) *Service {
	t.Helper()
	s, err := NewService(p)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return s
}

func arrive(t *testing.T, s *Service, id int64, class Class, at sim.Time) []Shed {
	t.Helper()
	sheds, _ := s.Arrive(&Item{ID: id, Class: class, Arrived: at})
	return sheds
}

func TestValidateRejectsBadPolicies(t *testing.T) {
	bad := []func(*Policy){
		func(p *Policy) { p.MPL = 0 },
		func(p *Policy) { p.Epoch = 0 },
		func(p *Policy) { p.MaxQueue = 0 },
		func(p *Policy) { p.InteractiveFraction = 1.5 },
		func(p *Policy) { p.QueueSLO[Batch] = -1 },
		func(p *Policy) { p.OverloadP95 = -1 },
	}
	for i, mutate := range bad {
		p := DefaultPolicy()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad policy validated", i)
		}
	}
	if err := DefaultPolicy().Validate(); err != nil {
		t.Errorf("DefaultPolicy invalid: %v", err)
	}
}

func TestQueueOrdersByDeadlineThenFIFO(t *testing.T) {
	s := mustService(t, testPolicy())
	// Batch arrives first but carries the loose SLO; the later interactive
	// arrival has the earlier deadline and must pop first.
	arrive(t, s, 1, Batch, 0)
	arrive(t, s, 2, Interactive, 1*sim.Second)
	arrive(t, s, 3, Batch, 2*sim.Second)

	want := []int64{2, 1, 3} // interactive deadline 11s; batch deadlines 120s, 122s
	for i, w := range want {
		it, ok := s.Pop(5 * sim.Second)
		if !ok || it.ID != w {
			t.Fatalf("pop %d: got %v ok=%v, want id %d", i, it, ok, w)
		}
	}
	if _, ok := s.Pop(0); ok {
		t.Fatal("pop on empty queue returned ok")
	}
	st := s.Stats()
	if st.Admitted[Interactive] != 1 || st.Admitted[Batch] != 2 {
		t.Fatalf("admitted counters: %+v", st.Admitted)
	}
}

func TestFullQueueDisplacesLatestDeadline(t *testing.T) {
	s := mustService(t, testPolicy()) // MaxQueue 4
	for i := int64(1); i <= 4; i++ {
		if sheds := arrive(t, s, i, Batch, sim.Time(i)*sim.Second); len(sheds) != 0 {
			t.Fatalf("unexpected shed filling queue: %v", sheds)
		}
	}
	// An interactive arrival (tight deadline) displaces the latest-deadline
	// batch item, id 4.
	sheds := arrive(t, s, 5, Interactive, 10*sim.Second)
	if len(sheds) != 1 || sheds[0].Item.ID != 4 || sheds[0].Reason != ShedQueueFull {
		t.Fatalf("displacement: %+v", sheds)
	}
	if s.Depth() != 4 {
		t.Fatalf("depth after displacement: %d", s.Depth())
	}
	// A batch arrival with the latest deadline of all is itself the victim.
	sheds = arrive(t, s, 6, Batch, 20*sim.Second)
	if len(sheds) != 1 || sheds[0].Item.ID != 6 || sheds[0].Reason != ShedQueueFull {
		t.Fatalf("self-shed: %+v", sheds)
	}
	st := s.Stats()
	if st.Shed[ShedQueueFull] != 2 || st.DepthHighWater != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestExpireShedsOverdueOnly(t *testing.T) {
	p := testPolicy()
	s := mustService(t, p)
	arrive(t, s, 1, Interactive, 0)             // deadline 10s
	arrive(t, s, 2, Batch, 0)                   // deadline 120s
	arrive(t, s, 3, Interactive, 50*sim.Second) // deadline 60s

	sheds := s.Expire(61 * sim.Second) // ids 1 and 3 overdue
	if len(sheds) != 2 || sheds[0].Item.ID != 1 || sheds[1].Item.ID != 3 {
		t.Fatalf("expire: %+v", sheds)
	}
	for _, sh := range sheds {
		if sh.Reason != ShedDeadline {
			t.Fatalf("expire reason: %v", sh.Reason)
		}
	}
	if s.Depth() != 1 {
		t.Fatalf("depth after expire: %d", s.Depth())
	}
}

func TestZeroSLOMeansNoDeadline(t *testing.T) {
	p := testPolicy()
	p.QueueSLO[Batch] = 0
	s := mustService(t, p)
	arrive(t, s, 1, Batch, 0)
	if s.q[0].Deadline != NoDeadline {
		t.Fatalf("deadline: %v", s.q[0].Deadline)
	}
	if sheds := s.Expire(NoDeadline - 1); len(sheds) != 0 {
		t.Fatalf("NoDeadline item expired: %v", sheds)
	}
}

func TestDrainShedsEverything(t *testing.T) {
	s := mustService(t, testPolicy())
	for i := int64(1); i <= 3; i++ {
		arrive(t, s, i, Batch, 0)
	}
	sheds := s.Drain(5 * sim.Second)
	if len(sheds) != 3 || s.Depth() != 0 {
		t.Fatalf("drain: %d sheds, depth %d", len(sheds), s.Depth())
	}
	for _, sh := range sheds {
		if sh.Reason != ShedDrain {
			t.Fatalf("drain reason: %v", sh.Reason)
		}
	}
	if got := s.Stats().TotalShed(); got != 3 {
		t.Fatalf("TotalShed: %d", got)
	}
}

func TestOverloadHysteresis(t *testing.T) {
	p := testPolicy()
	p.MaxQueue = 100
	p.OverloadP95 = 30 * sim.Second
	s := mustService(t, p)

	// Healthy sojourns: no overload.
	for i := int64(0); i < 8; i++ {
		arrive(t, s, i, Batch, 0)
		s.Pop(1 * sim.Second)
	}
	s.EndEpoch(1 * sim.Second)
	if s.Overloaded() {
		t.Fatal("overloaded on healthy sojourns")
	}

	// Slow sojourns breach the p95: overload turns on, batch arrivals shed.
	for i := int64(10); i < 18; i++ {
		arrive(t, s, i, Batch, 0)
		s.Pop(60 * sim.Second)
	}
	s.EndEpoch(60 * sim.Second)
	if !s.Overloaded() {
		t.Fatal("not overloaded after p95 breach")
	}
	sheds, accepted := s.Arrive(&Item{ID: 100, Class: Batch, Arrived: 61 * sim.Second})
	if accepted || len(sheds) != 1 || sheds[0].Reason != ShedOverload {
		t.Fatalf("batch arrival under overload: accepted=%v sheds=%+v", accepted, sheds)
	}
	// Interactive arrivals still get in.
	if _, accepted := s.Arrive(&Item{ID: 101, Class: Interactive, Arrived: 61 * sim.Second}); !accepted {
		t.Fatal("interactive arrival shed under overload")
	}
	s.Pop(62 * sim.Second)

	// Recovery needs the p95 below 3/4 of the bound: refill the window with
	// fast sojourns.
	for i := int64(20); i < 28; i++ {
		arrive(t, s, i, Interactive, 100*sim.Second)
		s.Pop(100*sim.Second + 1*sim.Second)
	}
	s.EndEpoch(101 * sim.Second)
	if s.Overloaded() {
		t.Fatal("overload did not clear after recovery")
	}
}

func TestOverloadQueueFullTrigger(t *testing.T) {
	p := testPolicy()
	p.MaxQueue = 10
	p.OverloadP95 = 0 // sojourn trigger off; depth trigger only
	s := mustService(t, p)
	for i := int64(0); i < 9; i++ { // 9/10 = 90% full
		arrive(t, s, i, Batch, 0)
	}
	s.EndEpoch(0)
	if !s.Overloaded() {
		t.Fatal("not overloaded at 90% queue depth")
	}
	// Drain below half: recovers (no p95 bound set).
	for i := 0; i < 5; i++ {
		s.Pop(1 * sim.Second)
	}
	s.EndEpoch(1 * sim.Second)
	if s.Overloaded() {
		t.Fatal("overload did not clear after queue drained")
	}
}

// p95Reference is the obviously correct oracle for the sorted window: the
// live samples are the last w clamped observations; copy, sort, index.
func p95Reference(observed []sim.Time, w int) (sorted []sim.Time, p95 sim.Time) {
	sorted = slices.Clone(observed[max(0, len(observed)-w):])
	for i, d := range sorted {
		sorted[i] = max(d, 0)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if n := len(sorted); n > 0 {
		p95 = sorted[(n*95+99)/100-1]
	}
	return sorted, p95
}

func TestP95SojournNearestRank(t *testing.T) {
	// Sojourns 1..100 s, then 50 samples of 200 s that wrap the ring.
	var ramp []sim.Time
	for i := 1; i <= 100; i++ {
		ramp = append(ramp, sim.Time(i)*sim.Second)
	}
	for i := 0; i < 50; i++ {
		ramp = append(ramp, 200*sim.Second)
	}
	type sojournCase struct {
		name   string
		window int
		seq    []sim.Time
		want   map[int]sim.Time // p95 after this many observations
	}
	cases := []sojournCase{
		{"ramp-then-wrap", 100, ramp, map[int]sim.Time{100: 95 * sim.Second, 150: 200 * sim.Second}},
	}
	// Random sequences four windows long (the ring wraps three times), drawn
	// from nine values: many ties, and a third zero or negative (clamped).
	for _, w := range []int{1, 2, 7, 100, 128} {
		rng := sim.NewRNG(int64(w)).Stream("sojourn")
		seq := make([]sim.Time, 4*w+3)
		for i := range seq {
			seq[i] = sim.Time(rng.Intn(9)-3) * sim.Second
		}
		cases = append(cases, sojournCase{fmt.Sprintf("random-w%d", w), w, seq, nil})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testPolicy()
			p.SojournWindow = tc.window
			s := mustService(t, p)
			if got := s.P95Sojourn(); got != 0 {
				t.Fatalf("empty p95: %v", got)
			}
			for k := 1; k <= len(tc.seq); k++ {
				s.observeSojourn(tc.seq[k-1])
				sorted, p95 := p95Reference(tc.seq[:k], tc.window)
				if got := s.P95Sojourn(); got != p95 {
					t.Fatalf("after %d samples: p95 %v, reference %v", k, got, p95)
				}
				if !slices.Equal(s.sorted, sorted) {
					t.Fatalf("after %d samples: window %v, reference %v", k, s.sorted, sorted)
				}
				if want, ok := tc.want[k]; ok && s.P95Sojourn() != want {
					t.Fatalf("after %d samples: p95 %v, want %v", k, s.P95Sojourn(), want)
				}
			}
		})
	}
}

func TestPickClassFraction(t *testing.T) {
	p := DefaultPolicy()
	p.InteractiveFraction = 0.3
	rng := sim.NewRNG(42).Stream("class")
	n, interactive := 20000, 0
	for i := 0; i < n; i++ {
		if p.PickClass(rng) == Interactive {
			interactive++
		}
	}
	frac := float64(interactive) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("interactive fraction %.3f, want ~0.30", frac)
	}
	p.InteractiveFraction = 0
	if p.PickClass(rng) != Batch {
		t.Fatal("zero fraction drew interactive")
	}
}
