// Package vtime implements a deterministic virtual-time kernel: a
// discrete-event simulation substrate on which concurrent processes are
// written in ordinary blocking Go style (goroutines, channels, mutexes,
// sleeps) while time advances only when every process is blocked.
//
// The kernel runs exactly one process at a time (cooperative scheduling
// with an explicit hand-off token), which makes every simulation run fully
// deterministic for a fixed seed and program: there is no wall-clock in the
// loop and no OS-scheduler nondeterminism. A ten-minute cluster trace
// replays in milliseconds of real time.
//
// # Allocation discipline
//
// The kernel is the floor of the simulation's real-CPU cost, so its hot
// paths are amortized allocation-free:
//
//   - Kernel.Go reuses parked goroutines: when a process body returns, its
//     goroutine (and proc/resume-channel state) parks on a free list and
//     the next Go re-arms it instead of spawning. Kernel.Stats reports the
//     spawn/reuse split so tests can assert reuse.
//   - Timer-heap entries come from a pool, and the common schedulings avoid
//     closures entirely: Sleep stores the process to wake directly in the
//     timer, and AfterEvent takes a caller-pooled Event instead of a func.
//   - Chan waiters are pooled per channel, and queue slices (run queue,
//     channel buffers, waiter lists) reset to their start when drained, so
//     steady-state traffic reuses one backing array.
//
// Because exactly one party runs at a time, all pools are lock-free plain
// slices.
//
// All blocking must go through kernel primitives: Kernel.Sleep, Chan
// send/receive, Mutex, WaitGroup, Semaphore. Calling a kernel primitive
// from a goroutine that is not a kernel process is a programming error and
// panics.
package vtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a virtual instant, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as floating-point seconds since the simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Milliseconds reports t as floating-point milliseconds since the
// simulation start.
func (t Time) Milliseconds() float64 { return float64(t) / float64(time.Millisecond) }

func (t Time) String() string { return time.Duration(t).String() }

// procState records where a process currently is in its lifecycle. It is
// only ever touched by the party holding the scheduling token, so it needs
// no lock.
type procState uint8

const (
	stateRunnable procState = iota // in the run queue, waiting for dispatch
	stateRunning                   // currently holds the token
	stateParked                    // blocked in a waiter list or timer
	stateDone                      // finished (idle on the free list)
)

// proc is a kernel process: one goroutine whose execution interleaves with
// the scheduler through the resume channel. A proc outlives the bodies it
// runs: after a body returns, the goroutine parks on the kernel's free
// list until Go re-arms it with a new body.
type proc struct {
	id     int64
	name   string
	resume chan struct{} // buffered(1): token grant
	state  procState
	killed bool // set by Stop; the next resume unwinds the process
	retire bool // set by Stop for idle procs; the next resume exits the goroutine
	body   func()
	runner Runner // closure-free alternative to body (GoRunner)
	k      *Kernel
}

// killedPanic unwinds a process that is being terminated by Kernel.Stop.
type killedPanic struct{}

// Runner is a reusable process body: GoRunner runs r.Run() as a kernel
// process without allocating a per-spawn closure. Hot dispatch paths
// (e.g. simnet's concurrent dispatcher) hand the kernel pooled Runner
// objects carrying their own arguments, so steady-state traffic spawns
// processes allocation-free.
type Runner interface{ Run() }

// Event is a pooled timer callback: AfterEvent schedules ev.Fire() at a
// future instant without allocating a closure. Fire runs on the scheduler
// goroutine while no process holds the token; it must not block.
type Event interface{ Fire() }

// timer is a scheduled callback. Exactly one of wake, ev, fire is set:
// wake resumes a parked process (Sleep), ev fires a pooled Event, fire is
// the general closure path (After). Callbacks run on the scheduler
// goroutine while no process holds the token; they must not block.
type timer struct {
	when     Time
	seq      int64 // tie-break so equal-time timers fire in creation order
	wake     *proc
	ev       Event
	fire     func()
	canceled bool
	gen      uint64 // bumped on recycle, so stale cancels are no-ops
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// Stats are the kernel's lifetime counters, exposed for tests and
// reports. Spawns vs Reuses measures the process free list: a hot
// simulation should reuse parked goroutines for almost every Go call.
type Stats struct {
	Spawns     int64 // Kernel.Go calls that created a new goroutine
	Reuses     int64 // Kernel.Go calls served from the process free list
	Dispatches int64 // token grants to processes
	TimerFires int64 // timers fired
	LiveProcs  int64 // processes currently running, runnable, or parked
}

// Kernel is a deterministic virtual-time scheduler. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now     Time
	runq    fifo[*proc]
	timers  timerHeap
	yield   chan struct{} // process -> scheduler: token return
	current *proc
	running bool // a Run call is in progress
	stopped bool
	nextID  int64
	nextSeq int64
	live    map[int64]*proc // all non-done procs, for Stop and deadlock dumps
	rng     *rand.Rand

	freeProcs  []*proc  // parked goroutines awaiting a new body
	freeTimers []*timer // recycled heap entries

	stats Stats
}

// NewKernel returns a kernel whose random source is seeded with seed.
// Identical programs on identically-seeded kernels produce identical
// traces.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		yield: make(chan struct{}),
		live:  make(map[int64]*proc),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from kernel processes (or between Run calls), never concurrently.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Dispatches reports how many times a process has been granted the token.
func (k *Kernel) Dispatches() int64 { return k.stats.Dispatches }

// Stats returns the kernel's lifetime counters plus the current live
// process count — the lifecycle tests use LiveProcs to assert that
// crash/restart cycles do not leak parked serve loops.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.LiveProcs = int64(len(k.live))
	return s
}

// Go spawns fn as a new kernel process. It may be called from a running
// process or from outside the kernel between Run invocations. The process
// is runnable immediately but does not execute until the scheduler
// dispatches it. Parked goroutines from completed processes are reused.
func (k *Kernel) Go(name string, fn func()) { k.launch(name, fn, nil) }

// GoRunner spawns r.Run() as a kernel process — Go without the closure:
// the Runner is typically a caller-pooled object carrying its own
// arguments, so spawning allocates nothing once the process free list
// is warm.
func (k *Kernel) GoRunner(name string, r Runner) { k.launch(name, nil, r) }

// launch arms a free-list (or fresh) process with the next body; exactly
// one of fn and r is set.
func (k *Kernel) launch(name string, fn func(), r Runner) {
	if k.stopped {
		panic("vtime: Go on stopped kernel")
	}
	k.nextID++
	var p *proc
	if n := len(k.freeProcs); n > 0 {
		p = k.freeProcs[n-1]
		k.freeProcs = k.freeProcs[:n-1]
		p.id, p.name, p.body, p.runner = k.nextID, name, fn, r
		p.state = stateRunnable
		p.killed = false
		k.stats.Reuses++
	} else {
		p = &proc{
			id:     k.nextID,
			name:   name,
			resume: make(chan struct{}, 1),
			state:  stateRunnable,
			body:   fn,
			runner: r,
			k:      k,
		}
		k.stats.Spawns++
		go p.top()
	}
	k.live[p.id] = p
	k.runq.push(p)
}

// top is the entry point of every process goroutine: wait for a token
// grant, run the current body, park on the free list, repeat. The
// goroutine exits only when the kernel retires it during Stop.
func (p *proc) top() {
	for {
		<-p.resume
		if p.retire {
			p.k.yield <- struct{}{}
			return
		}
		p.runBody()
		p.state = stateDone
		delete(p.k.live, p.id)
		p.body, p.runner = nil, nil
		p.k.freeProcs = append(p.k.freeProcs, p)
		p.k.yield <- struct{}{}
	}
}

// runBody executes one body, absorbing the kill unwind so the goroutine
// can be reused.
func (p *proc) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				// Re-panicking application errors on the scheduler's
				// goroutine would lose the stack; crash here instead,
				// but first note which process died.
				panic(fmt.Sprintf("vtime: process %q panicked: %v", p.name, r))
			}
		}
	}()
	p.state = stateRunning
	p.k.current = p
	if p.killed {
		panic(killedPanic{})
	}
	if p.body != nil {
		p.body()
	} else {
		p.runner.Run()
	}
}

// park blocks the calling process until another party wakes it. The caller
// must already have registered itself in whatever waiter structure will
// wake it. park panics with killedPanic if the kernel is stopping.
func (k *Kernel) park() {
	p := k.current
	if p == nil {
		panic("vtime: blocking primitive called from outside a kernel process")
	}
	p.state = stateParked
	k.current = nil
	k.yield <- struct{}{}
	<-p.resume
	p.state = stateRunning
	k.current = p
	if p.killed {
		panic(killedPanic{})
	}
}

// wake moves a parked process to the run queue. It is a no-op for
// processes that are already runnable, running, or done, which lets
// multiple wake sources race benignly (e.g. a receive completing at the
// same instant as its timeout).
func (k *Kernel) wake(p *proc) {
	if p.state != stateParked {
		return
	}
	p.state = stateRunnable
	k.runq.push(p)
}

// YieldNow voluntarily reschedules the calling process behind everything
// currently runnable, without advancing time.
func (k *Kernel) YieldNow() {
	p := k.current
	if p == nil {
		panic("vtime: YieldNow outside a kernel process")
	}
	p.state = stateRunnable
	k.runq.push(p)
	k.current = nil
	k.yield <- struct{}{}
	<-p.resume
	p.state = stateRunning
	k.current = p
	if p.killed {
		panic(killedPanic{})
	}
}

// addTimer takes a pooled timer entry, stamps it with now+d and the next
// tie-break sequence, and pushes it on the heap.
func (k *Kernel) addTimer(d time.Duration) *timer {
	if d < 0 {
		d = 0
	}
	k.nextSeq++
	var t *timer
	if n := len(k.freeTimers); n > 0 {
		t = k.freeTimers[n-1]
		k.freeTimers = k.freeTimers[:n-1]
	} else {
		t = &timer{}
	}
	t.when = k.now.Add(d)
	t.seq = k.nextSeq
	t.canceled = false
	heap.Push(&k.timers, t)
	return t
}

// releaseTimer recycles a popped heap entry. Bumping gen invalidates any
// outstanding cancel handle for the old use.
func (k *Kernel) releaseTimer(t *timer) {
	t.gen++
	t.wake = nil
	t.ev = nil
	t.fire = nil
	k.freeTimers = append(k.freeTimers, t)
}

// After schedules fn to run at now+d on the scheduler goroutine. fn must
// not block. The returned cancel function prevents fn from running if it
// has not fired yet. Hot paths that cannot afford the two closures should
// use AfterEvent with a pooled Event instead.
func (k *Kernel) After(d time.Duration, fn func()) (cancel func()) {
	t := k.addTimer(d)
	t.fire = fn
	gen := t.gen
	return func() {
		if t.gen == gen {
			t.canceled = true
		}
	}
}

// AfterEvent schedules ev.Fire() to run at now+d on the scheduler
// goroutine, without allocating: the timer entry is pooled and ev is
// typically a caller-pooled object. Fire must not block.
func (k *Kernel) AfterEvent(d time.Duration, ev Event) {
	k.addTimer(d).ev = ev
}

// Sleep blocks the calling process for virtual duration d.
func (k *Kernel) Sleep(d time.Duration) {
	p := k.current
	if p == nil {
		panic("vtime: Sleep outside a kernel process")
	}
	k.addTimer(d).wake = p
	k.park()
}

// Run drives the scheduler until fn (executed as a new process) returns.
// Other live processes keep their state across Run calls: daemons parked
// on timers or channels simply stay parked, and resume when a later Run
// lets time advance again.
func (k *Kernel) Run(name string, fn func()) {
	if k.stopped {
		panic("vtime: Run on stopped kernel")
	}
	if k.running {
		panic("vtime: nested Run")
	}
	k.running = true
	defer func() { k.running = false }()

	done := false
	k.Go(name, func() { defer func() { done = true }(); fn() })
	for !done {
		if k.runq.len() > 0 {
			k.dispatch()
			continue
		}
		if !k.advance() {
			panic("vtime: deadlock — no runnable process and no pending timer\n" + k.dumpLive())
		}
	}
}

// dispatch grants the token to the head of the run queue and waits for it
// to come back.
func (k *Kernel) dispatch() {
	p := k.runq.pop()
	if p.state != stateRunnable {
		return // killed or already completed through another path
	}
	k.stats.Dispatches++
	p.resume <- struct{}{}
	<-k.yield
}

// advance pops the earliest timer, moves the clock, and fires it. It
// returns false when no timer is pending.
func (k *Kernel) advance() bool {
	for len(k.timers) > 0 {
		t := heap.Pop(&k.timers).(*timer)
		if t.canceled {
			k.releaseTimer(t)
			continue
		}
		if t.when > k.now {
			k.now = t.when
		}
		k.stats.TimerFires++
		switch {
		case t.wake != nil:
			k.wake(t.wake)
		case t.ev != nil:
			t.ev.Fire()
		default:
			t.fire()
		}
		k.releaseTimer(t)
		return true
	}
	return false
}

// Stop terminates every live process by unwinding it with an internal
// panic, retires the idle goroutines parked on the free list, then marks
// the kernel unusable. Call it when a simulation is finished so that
// process goroutines do not leak across tests.
func (k *Kernel) Stop() {
	if k.stopped {
		return
	}
	if k.running {
		panic("vtime: Stop during Run")
	}
	// Deterministic order: lowest live id first. One sort per round
	// suffices: processes spawned while another unwinds get higher ids
	// than the whole snapshot, so they wait for the next round, and a
	// process that parks again while unwinding is re-killed before the
	// next id, as it is still the lowest.
	var ids []int64
	for len(k.live) > 0 {
		ids = ids[:0]
		for id := range k.live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			for p, ok := k.live[id]; ok; p, ok = k.live[id] {
				p.killed = true
				p.resume <- struct{}{}
				<-k.yield
			}
		}
	}
	// Unwound processes park on the free list; exit their goroutines.
	for _, p := range k.freeProcs {
		p.retire = true
		p.resume <- struct{}{}
		<-k.yield
	}
	k.freeProcs = nil
	k.freeTimers = nil
	k.stopped = true
	k.runq = fifo[*proc]{}
	k.timers = nil
}

// dumpLive renders the parked-process table for deadlock diagnostics.
func (k *Kernel) dumpLive() string {
	ids := make([]int64, 0, len(k.live))
	for id := range k.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s := fmt.Sprintf("at t=%v, %d live processes:\n", k.now, len(ids))
	for _, id := range ids {
		p := k.live[id]
		s += fmt.Sprintf("  #%d %-30s state=%d\n", p.id, p.name, p.state)
	}
	return s
}

// fifo is an allocation-amortized FIFO queue: a slice with a head index
// that resets to the array start whenever the queue drains, so
// steady-state push/pop traffic reuses one backing array instead of
// leaking capacity off the front.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Compact the dead prefix instead of letting append copy it into
		// a bigger array: a queue that never fully drains must cost
		// O(depth) memory, not O(total throughput).
		live := copy(q.buf, q.buf[q.head:])
		var zero T
		for i := live; i < len(q.buf); i++ {
			q.buf[i] = zero
		}
		q.buf = q.buf[:live]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference for GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// each calls fn for every queued element in FIFO order.
func (q *fifo[T]) each(fn func(T)) {
	for i := q.head; i < len(q.buf); i++ {
		fn(q.buf[i])
	}
}

// remove deletes the first element for which match returns true,
// preserving order, and reports whether one was found.
func (q *fifo[T]) remove(match func(T) bool) bool {
	for i := q.head; i < len(q.buf); i++ {
		if match(q.buf[i]) {
			copy(q.buf[i:], q.buf[i+1:])
			var zero T
			q.buf[len(q.buf)-1] = zero
			q.buf = q.buf[:len(q.buf)-1]
			if q.head == len(q.buf) {
				q.buf = q.buf[:0]
				q.head = 0
			}
			return true
		}
	}
	return false
}

// reset empties the queue.
func (q *fifo[T]) reset() {
	for i := q.head; i < len(q.buf); i++ {
		var zero T
		q.buf[i] = zero
	}
	q.buf = q.buf[:0]
	q.head = 0
}
