package live

import (
	"sync"
	"time"

	"batchsched/internal/model"
	"batchsched/internal/sim"
)

// liveCohort is one step's share of work at one data-processing node: scan
// rows/DD-worth of the file's partition slab, one quantum per round-robin
// turn, exactly like the simulator slices a step of cost C into 1/DD-object
// quanta.
type liveCohort struct {
	run   *liveRun
	txn   int64
	file  model.FileID
	mode  model.Mode
	write bool
	rows  int // total rows this cohort must scan

	pos     int
	arrived sim.Time
	sum     uint64
}

// completion is the DPN -> CN reply for one finished cohort.
type completion struct {
	run        *liveRun
	node       int
	start, end sim.Time      // cohort residency on the shared wall clock
	sum        uint64        // read checksum (defeats dead-code elimination)
	busy       time.Duration // the node's cumulative busy time at completion
}

// dpnWorker is one data-processing node: a goroutine owning a partition
// store slab per resident file, a ring of in-service cohorts served
// round-robin one quantum at a time, and a local lock table (dataGuard)
// checking that co-resident cohorts are compatible. It communicates with
// the CN exclusively over channels: cohorts in, completions out.
type dpnWorker struct {
	id   int
	in   chan *liveCohort
	comp chan<- completion
	clk  *wallClock

	part        map[model.FileID][]uint64
	slabRows    int           // rows per partition slab (one object's worth)
	quantumRows int           // rows scanned per round-robin quantum (1/DD object)
	pace        time.Duration // wall-time floor per full quantum (0 = compute-bound)

	guard *dataGuard
	ring  []*liveCohort
	cur   int

	busy       time.Duration
	violations int
	wg         *sync.WaitGroup
}

// loop is the node's goroutine: admit every waiting cohort, serve one
// quantum, repeat; exit when the CN closes the inbox and the ring drains.
// The inbox receive blocks only when the ring is empty, so service never
// starves arrivals and arrivals never preempt a quantum.
func (d *dpnWorker) loop() {
	defer d.wg.Done()
	closed := false
	for {
		if len(d.ring) == 0 {
			if closed {
				d.violations = d.guard.Violations()
				return
			}
			c, ok := <-d.in
			if !ok {
				closed = true
				continue
			}
			d.admit(c)
		}
		// Batch in whatever else arrived while serving.
	drain:
		for !closed {
			select {
			case c, ok := <-d.in:
				if !ok {
					closed = true
				} else {
					d.admit(c)
				}
			default:
				break drain
			}
		}
		d.serve()
	}
}

// admit lands a cohort: acquire the partition lock (counting, not blocking
// on, violations) and join the service ring.
func (d *dpnWorker) admit(c *liveCohort) {
	c.arrived = d.clk.Now()
	d.guard.acquire(c.txn, c.file, c.mode)
	if _, ok := d.part[c.file]; !ok {
		slab := make([]uint64, d.slabRows)
		for i := range slab {
			slab[i] = uint64(d.id)<<48 | uint64(c.file)<<32 | uint64(i)
		}
		d.part[c.file] = slab
	}
	d.ring = append(d.ring, c)
}

// serve runs one round-robin quantum of the current cohort: scan up to
// quantumRows rows of its partition slab (reads checksum, writes stamp the
// transaction id), optionally pace to the configured wall-time floor, then
// rotate — or complete the cohort and reply to the CN.
func (d *dpnWorker) serve() {
	c := d.ring[d.cur]
	t0 := time.Now()
	slab := d.part[c.file]
	n := c.rows - c.pos
	if n > d.quantumRows {
		n = d.quantumRows
	}
	if c.write {
		for i := 0; i < n; i++ {
			slab[(c.pos+i)%len(slab)] = uint64(c.txn)<<32 | uint64(c.pos+i)
		}
	} else {
		var sum uint64
		for i := 0; i < n; i++ {
			sum += slab[(c.pos+i)%len(slab)]
		}
		c.sum += sum
	}
	c.pos += n
	if d.pace > 0 {
		floor := time.Duration(float64(d.pace) * float64(n) / float64(d.quantumRows))
		if el := time.Since(t0); el < floor {
			time.Sleep(floor - el)
		}
	}
	d.busy += time.Since(t0)
	if c.pos >= c.rows {
		d.guard.release(c.txn)
		// The completions channel is sized for every submitted transaction
		// to have a resident cohort here at once, so this send cannot block
		// — the deadlock-freedom argument of DESIGN.md §12.
		d.comp <- completion{run: c.run, node: d.id, start: c.arrived, end: d.clk.Now(), sum: c.sum, busy: d.busy}
		d.ring = append(d.ring[:d.cur], d.ring[d.cur+1:]...)
		if d.cur >= len(d.ring) {
			d.cur = 0
		}
	} else {
		d.cur = (d.cur + 1) % len(d.ring)
	}
}
