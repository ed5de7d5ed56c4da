package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

// TestParseBenchCount: a benchmark repeated under -count N keeps its median
// line and records the fastest and slowest ns/op beside it; a single run
// records no spread.
func TestParseBenchCount(t *testing.T) {
	cases := []struct {
		name  string
		input string
		procs int
		want  map[string]benchResult
	}{
		{
			name: "count 3",
			input: `goos: linux
goarch: amd64
pkg: batchsched/internal/sched
BenchmarkC2PLRequest-2   	   20000	      1480 ns/op	       0 B/op	       0 allocs/op
BenchmarkC2PLRequest-2   	   20000	      1405 ns/op	       0 B/op	       0 allocs/op
BenchmarkC2PLRequest-2   	   20000	      1733 ns/op	       1 B/op	       0 allocs/op
BenchmarkCanGrantAll/refused-2   	  200000	        24.71 ns/op	       0 B/op	       0 allocs/op
BenchmarkCanGrantAll/refused-2   	  200000	        26.02 ns/op	       0 B/op	       0 allocs/op
BenchmarkCanGrantAll/refused-2   	  200000	        25.10 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	batchsched/internal/sched	0.087s
`,
			procs: 2,
			want: map[string]benchResult{
				"C2PLRequest": {Iterations: 20000, NsPerOp: 1480, NsPerOpMin: 1405, NsPerOpMax: 1733},
				"CanGrantAll/refused": {Iterations: 200000, NsPerOp: 25.10,
					NsPerOpMin: 24.71, NsPerOpMax: 26.02},
			},
		},
		{
			name: "single run",
			input: `BenchmarkRunGOW-2   	      20	   1633888 ns/op	   72305 B/op	     834 allocs/op	      2565 events/op
`,
			procs: 2,
			want: map[string]benchResult{
				"RunGOW": {Iterations: 20, NsPerOp: 1633888, BytesPerOp: 72305,
					AllocsPerOp: 834, EventsPerOp: 2565},
			},
		},
		{
			name: "count 2 takes the lower median",
			input: `BenchmarkEpoch/idle 	 100	 9 ns/op
BenchmarkEpoch/idle 	 100	 7 ns/op
`,
			procs: 1,
			want: map[string]benchResult{
				"Epoch/idle": {Iterations: 100, NsPerOp: 7, NsPerOpMin: 7, NsPerOpMax: 9},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, procs, err := parseBench(bufio.NewScanner(strings.NewReader(c.input)))
			if err != nil {
				t.Fatal(err)
			}
			if procs != c.procs {
				t.Errorf("GOMAXPROCS = %d, want %d", procs, c.procs)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("parsed\n%+v\nwant\n%+v", got, c.want)
			}
		})
	}
}
