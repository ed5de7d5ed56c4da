package engine_test

import (
	"testing"

	"batchsched/internal/engine"
	"batchsched/internal/model"
	"batchsched/internal/sim"
)

func TestPlacementHome(t *testing.T) {
	p := engine.Placement{NumNodes: 4, DD: 1}
	cases := []struct {
		file model.FileID
		want int
	}{{0, 0}, {1, 1}, {4, 0}, {7, 3}, {-1, 3}, {-4, 0}}
	for _, c := range cases {
		if got := p.Home(c.file); got != c.want {
			t.Errorf("Home(%d) = %d, want %d", c.file, got, c.want)
		}
	}
}

func TestPlacementNodesWrap(t *testing.T) {
	p := engine.Placement{NumNodes: 4, DD: 3}
	got := p.NodesInto(3, nil) // home 3, wraps to 0, 1
	want := []int{3, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("NodesInto(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodesInto(3) = %v, want %v", got, want)
		}
	}
}

// fakeBackendClock just pins that sim.Time flows through the Clock
// interface unchanged.
type fakeClock struct{ at sim.Time }

func (f fakeClock) Now() sim.Time { return f.at }

func TestClockInterface(t *testing.T) {
	var c engine.Clock = fakeClock{at: 42 * sim.Second}
	if c.Now() != 42*sim.Second {
		t.Fatal("clock did not round-trip")
	}
}
