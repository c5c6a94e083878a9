package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// refChunkMS is the median host CPU time of one calibration chunk, run
// between measured slices, on the machine the bounds were set on (an
// Intel Xeon at 2.0 GHz, two vCPUs of a shared host). Host times are
// reported in seconds of that machine.
const refChunkMS = 1.2

// calibrateEvery is the host CPU time between calibration chunks while
// the measured phase runs, about seventeen times a chunk's own.
const calibrateEvery = 20 * time.Millisecond

// calibrator times calibration chunks in between the measured work of
// one episode. Other tenants of a shared machine slow the same work by
// 10-40% for a few seconds at a time, through the caches, memory
// bandwidth and hardware threads they share; process CPU time does not
// exclude that. A chunk of fixed work timed alongside the slices slows
// with them: across the episodes of one run, an episode's measured time
// tracked the median of its chunks with a correlation of 0.9 to 1.0.
// The chunk's median came out the same (1.21-1.23 ms) between the
// slices of every workload, so the program's own memory use does not
// move it. Each episode's host times are scaled by refChunkMS over that
// median, so a slowed episode reads as it would on the reference
// machine.
type calibrator struct {
	next time.Duration // process CPU time at which the next chunk is due
	ms   []float64
}

// chunk times one calibration chunk. The chunk never blocks, so it runs
// on one thread, whose clock stays exact while a CPU profile is taken.
func (c *calibrator) chunk() {
	runtime.LockOSThread()
	t0 := threadCPUNow()
	calibrationChunk()
	c.ms = append(c.ms, float64(threadCPUNow()-t0)/1e6)
	runtime.UnlockOSThread()
	c.next = cpuNow() + calibrateEvery
}

// due times a chunk if calibrateEvery has passed since the last one.
func (c *calibrator) due() {
	if cpuNow() >= c.next {
		c.chunk()
	}
}

// scale converts the episode's host times to reference times.
func (c *calibrator) scale() float64 { return refChunkMS / median(c.ms) }

// calibration is the working set of calibration chunks. It is built
// once, so a chunk allocates nothing: it adds no allocations or
// garbage-collector work to the measured phase. It holds no pointers, so
// a chunk writes none and never runs the collector's write barrier,
// which would slow it while a collection is marking.
var calibration struct {
	once   sync.Once
	keys   []uint64 // distinct keys in a scrambled order
	sorted calibrationOrder
	m      map[uint64]uint64
	nodes  []calibrationNode
}

// calibrationOrder sorts keys through a pointer, which an interface
// holds without allocating.
type calibrationOrder []uint64

func (o *calibrationOrder) Len() int           { return len(*o) }
func (o *calibrationOrder) Less(i, j int) bool { return (*o)[i] < (*o)[j] }
func (o *calibrationOrder) Swap(i, j int)      { (*o)[i], (*o)[j] = (*o)[j], (*o)[i] }

type calibrationNode struct {
	next int32
	v    [7]int64
}

// calibrationChunk does a fixed piece of work, about a millisecond,
// of the kinds the simulator spends its time on: hashing into maps,
// sorting, and following links through scattered memory. It calls none
// of the repository's code, so no change to the program moves it. It
// never blocks, so no other goroutine runs inside its timing.
func calibrationChunk() {
	c := &calibration
	c.once.Do(func() {
		c.keys = make([]uint64, 4096)
		for i := range c.keys {
			c.keys[i] = uint64(i*7919%10007) * 0x9e3779b97f4a7c15
		}
		c.sorted = make(calibrationOrder, len(c.keys))
		c.m = make(map[uint64]uint64, len(c.keys))
		c.nodes = make([]calibrationNode, 4096)
		for i := range c.nodes {
			c.nodes[i].next = int32((i + 1) * 1777 % len(c.nodes))
		}
	})

	var sum uint64
	clear(c.m)
	for r := uint64(0); r < 3; r++ {
		for i, k := range c.keys {
			c.m[k] += uint64(i) + r
		}
	}
	copy(c.sorted, c.keys)
	sort.Sort(&c.sorted)
	sum += c.m[c.sorted[0]]

	for r := 0; r < 4; r++ {
		for i, n := 0, int32(0); i < len(c.nodes); i++ {
			c.nodes[n].v[0]++
			sum += uint64(c.nodes[n].v[0])
			n = c.nodes[n].next
		}
	}
	calibrationSink = sum
}

var calibrationSink uint64
