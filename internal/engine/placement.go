package engine

import "batchsched/internal/model"

// Placement maps files to data-processing nodes: file f's home node is
// f mod NumNodes, and with degree of declustering DD the file's partitions
// live on the DD consecutive nodes starting at the home node (wrapping).
// Both backends share this mapping, so a workload lands on the same nodes
// under simulation and live execution.
type Placement struct {
	// NumNodes is the machine size.
	NumNodes int
	// DD is the degree of declustering.
	DD int
}

// Home returns the home node of file f.
func (p Placement) Home(f model.FileID) int {
	n := int(f) % p.NumNodes
	if n < 0 {
		n += p.NumNodes
	}
	return n
}

// NodesInto returns the nodes holding partitions of file f, home node
// first, in buf (truncated first, so hot paths can reuse it
// allocation-free).
func (p Placement) NodesInto(f model.FileID, buf []int) []int {
	buf = buf[:0]
	home := p.Home(f)
	for i := 0; i < p.DD; i++ {
		buf = append(buf, (home+i)%p.NumNodes)
	}
	return buf
}
