package admit

import (
	"testing"

	"batchsched/internal/sim"
)

var p95Sink sim.Time

// BenchmarkEpoch measures the admission bookkeeping of one service epoch
// with the default 128-sample sojourn window full: "idle" is an epoch that
// admits nothing (the overload check plus the epoch digest's p95 read),
// "one-admission" first queues and admits one transaction, whose sojourn
// replaces the oldest sample. Sojourns stay below the overload bound, so no
// arrival is shed.
func BenchmarkEpoch(b *testing.B) {
	pol := DefaultPolicy()
	rng := sim.NewRNG(1).Stream("sojourn")
	sojourns := make([]sim.Time, 1024)
	for i := range sojourns {
		sojourns[i] = sim.Time(rng.Intn(20000)) * sim.Millisecond
	}
	fullWindow := func(b *testing.B) *Service {
		s, err := NewService(pol)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < pol.SojournWindow; i++ {
			s.observeSojourn(sojourns[i])
		}
		return s
	}

	b.Run("idle", func(b *testing.B) {
		s := fullWindow(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := sim.Time(i) * pol.Epoch
			s.EndEpoch(now)
			p95Sink = s.P95Sojourn()
		}
	})
	b.Run("one-admission", func(b *testing.B) {
		s := fullWindow(b)
		it := &Item{Class: Batch}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := sim.Time(i) * pol.Epoch
			it.Arrived, it.Deadline = now-sojourns[i%len(sojourns)], 0
			if _, ok := s.Arrive(it); !ok {
				b.Fatal("arrival shed")
			}
			s.Pop(now)
			s.EndEpoch(now)
			p95Sink = s.P95Sojourn()
		}
	})
}
