package workload

import (
	"fmt"
	"math"

	"batchsched/internal/sim"
)

// Arrivals is an open arrival process: Next returns the gap from now to the
// next arrival, drawing from the rng it is handed (the backend's "arrivals"
// stream), so the arrival sequence is seed-deterministic on every backend.
// Time-varying processes need now; homogeneous ones ignore it.
//
// Processes with internal state (Trace, Burst) use pointer receivers — build
// a fresh one per run, exactly like schedulers.
type Arrivals interface {
	Next(now sim.Time, rng *sim.RNG) sim.Time
}

// Poisson is the paper's homogeneous Poisson process at Rate transactions
// per second. Next draws exactly rng.ExpTime(Rate) — byte-compatible with
// the machine's original inline arrival draw, which is what keeps every
// closed-batch paper artifact identical after the arrival refactor.
type Poisson struct {
	// Rate is the arrival rate in transactions per second.
	Rate float64
}

// Next draws one exponential inter-arrival gap.
func (p Poisson) Next(_ sim.Time, rng *sim.RNG) sim.Time {
	return rng.ExpTime(p.Rate)
}

// Trace replays a recorded gap sequence, cycling when exhausted — the
// deterministic-trace arrival process (replay of production inter-arrival
// logs, adversarial gap patterns in tests).
type Trace struct {
	// Gaps is the inter-arrival sequence to replay.
	Gaps []sim.Time
	pos  int
}

// NewTrace returns a trace process over the given gaps.
func NewTrace(gaps []sim.Time) *Trace {
	if len(gaps) == 0 {
		panic("workload: trace arrivals need at least one gap")
	}
	for _, g := range gaps {
		if g <= 0 {
			panic(fmt.Sprintf("workload: trace gaps must be positive, got %v", g))
		}
	}
	return &Trace{Gaps: gaps}
}

// Next replays the next recorded gap.
func (t *Trace) Next(_ sim.Time, _ *sim.RNG) sim.Time {
	g := t.Gaps[t.pos%len(t.Gaps)]
	t.pos++
	return g
}

// Diurnal is a nonhomogeneous Poisson process with a sinusoidal rate
//
//	lambda(t) = Base * (1 + Amplitude*sin(2*pi*t/Period)),
//
// sampled by thinning against the peak rate Base*(1+Amplitude) — the
// classic day/night load shape. Amplitude must be in [0, 1) so the rate
// stays positive.
type Diurnal struct {
	// Base is the mean arrival rate in transactions per second.
	Base float64
	// Amplitude is the relative swing around Base, in [0, 1).
	Amplitude float64
	// Period is the cycle length.
	Period sim.Time
}

// NewDiurnal returns a sinusoidally-modulated Poisson process.
func NewDiurnal(base, amplitude float64, period sim.Time) Diurnal {
	d := Diurnal{Base: base, Amplitude: amplitude, Period: period}
	d.validate()
	return d
}

func (d Diurnal) validate() {
	if d.Base <= 0 || d.Amplitude < 0 || d.Amplitude >= 1 || d.Period <= 0 {
		panic(fmt.Sprintf("workload: diurnal arrivals need Base > 0, Amplitude in [0,1), Period > 0; got %+v", d))
	}
}

// Next thins candidate arrivals at the peak rate until one survives the
// instantaneous-rate acceptance test.
func (d Diurnal) Next(now sim.Time, rng *sim.RNG) sim.Time {
	d.validate()
	peak := d.Base * (1 + d.Amplitude)
	var gap sim.Time
	for {
		gap += rng.ExpTime(peak)
		t := now + gap
		lam := d.Base * (1 + d.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(d.Period)))
		if rng.Float64()*peak <= lam {
			return gap
		}
	}
}

// Burst is a two-state Markov-modulated Poisson process: Base rate in the
// quiet state, Base*Factor during bursts, with exponentially distributed
// state sojourns — flash-crowd traffic. The exponential gap is re-drawn at
// each state boundary, which is exact by memorylessness.
type Burst struct {
	// Base is the quiet-state arrival rate in transactions per second.
	Base float64
	// Factor multiplies the rate during a burst (> 1).
	Factor float64
	// MeanQuiet and MeanBurst are the mean state sojourns.
	MeanQuiet sim.Time
	MeanBurst sim.Time

	started bool
	burst   bool
	until   sim.Time // current state's end
}

// NewBurst returns an on/off burst-modulated Poisson process.
func NewBurst(base, factor float64, meanQuiet, meanBurst sim.Time) *Burst {
	if base <= 0 || factor <= 1 || meanQuiet <= 0 || meanBurst <= 0 {
		panic(fmt.Sprintf("workload: burst arrivals need Base > 0, Factor > 1 and positive sojourns; got base=%g factor=%g quiet=%v burst=%v",
			base, factor, meanQuiet, meanBurst))
	}
	return &Burst{Base: base, Factor: factor, MeanQuiet: meanQuiet, MeanBurst: meanBurst}
}

func (b *Burst) sojourn(rng *sim.RNG) sim.Time {
	mean := b.MeanQuiet
	if b.burst {
		mean = b.MeanBurst
	}
	s := sim.Time(rng.Exp(1) * float64(mean))
	if s < 1 {
		s = 1
	}
	return s
}

// Next advances through state boundaries until a candidate gap lands inside
// the current state.
func (b *Burst) Next(now sim.Time, rng *sim.RNG) sim.Time {
	if !b.started {
		b.started = true
		b.until = now + b.sojourn(rng)
	}
	t := now
	for {
		if t >= b.until {
			b.burst = !b.burst
			b.until = t + b.sojourn(rng)
		}
		rate := b.Base
		if b.burst {
			rate *= b.Factor
		}
		gap := rng.ExpTime(rate)
		if t+gap <= b.until {
			return t + gap - now
		}
		t = b.until
	}
}
