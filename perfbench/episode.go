package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	cb "cloudburst"
	"cloudburst/internal/cluster"
	"cloudburst/internal/trace"
)

// phase is one span of the benchmark's own work, in host CPU seconds
// since the episode began.
type phase struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// episode is one cluster driven through boot, registration, preload,
// warm-up, the measured slices, drain and Close. A run repeats episodes
// of one seed until its time budget is spent.
type episode struct {
	c       *cb.Cluster
	in      *cluster.Cluster
	seed    int64
	traced  bool
	corrupt bool // tests only: skew every expected value so checks must fail

	began  time.Duration // process CPU time at the start
	phases []phase

	led ledger
	// stop tells load processes to issue no further requests.
	stop bool
	// retired holds VM handles taken out of the cluster during the run,
	// so their executor and cache counters still count.
	retired []*cluster.VMHandle
}

// mark records a phase that ran from start (process CPU time) until now.
func (e *episode) mark(name string, start time.Duration) {
	e.phases = append(e.phases, phase{
		Name:  name,
		Start: (start - e.began).Seconds(),
		End:   (cpuNow() - e.began).Seconds(),
	})
}

// timed runs fn as the named phase.
func (e *episode) timed(name string, fn func()) {
	start := cpuNow()
	fn()
	e.mark(name, start)
}

// expect returns the value a correct run must produce for want; a
// corrupting episode skews it so the check has to trip.
func (e *episode) expect(want int64) int64 {
	if e.corrupt {
		return want + 1
	}
	return want
}

// spawn starts body as a persistent simulation process bound to its own
// client. The process keeps running across later Cluster.Run calls.
func (e *episode) spawn(name string, body func(cl *cb.Client)) {
	e.c.Run(func(cl *cb.Client) {
		cl.Kernel().Go(name, func() { body(cl) })
	})
}

// ledger records request outcomes inside the simulation. Kernel
// processes run one at a time, so it needs no locking.
type ledger struct {
	attempted int64
	failed    int64
	completed int64
	running   int // closed-loop clients still running
	firstErr  string
	digest    hash.Hash64
}

// record files one finished request; err covers both errors the system
// reported and results the benchmark found wrong.
func (l *ledger) record(id string, latency time.Duration, got any, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		l.note(fmt.Sprintf("%s: %v", id, err))
		return
	}
	l.completed++
	l.write(id, int64(latency), fmt.Sprint(got))
}

// note keeps the first failure message for the report.
func (l *ledger) note(msg string) {
	if l.firstErr == "" {
		l.firstErr = msg
	}
}

// mismatch reports a result that differs from the recomputed one.
func mismatch(got, want any) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("wrong result: got %v, want %v", got, want)
}

// write folds fields into the determinism digest.
func (l *ledger) write(id string, n int64, s string) {
	var buf [8]byte
	l.digest.Write([]byte(id))
	for i := range buf {
		buf[i] = byte(n >> (8 * i))
	}
	l.digest.Write(buf[:])
	l.digest.Write([]byte(s))
}

// outcome is what one episode measured.
type outcome struct {
	traced bool

	attempted, failed int64
	firstErr          string
	digest            string

	simReqs    int64   // requests completed in the measured phase
	simSeconds float64 // simulated length of the measured phase
	// Host ms of the measured slices: their sum and percentiles. An
	// outcome keeps no per-slice data, so the outcomes a run retains
	// stay small and do not change how often later episodes collect.
	sliceSumMS, sliceP50MS, sliceP99MS float64
	// scale converts this episode's host times to reference times, and
	// closeScale its teardown time; see calibrator.
	scale, closeScale float64
	setupS            float64
	teardownS         float64
	mallocs           uint64
	allocBytes        uint64
	heapLiveMB        float64
	gcCycles          uint32
	gcPauseMS         float64

	before, after counts
	phases        []phase
	profile       []byte // CPU profile of the measured phase (traced only)
	summaries     []trace.Summary
	checks        []string // workload-specific violations
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	why  string
	loop string // "closed" or "open" in simulated time
	size func(tiny bool) string

	// setup boots the cluster (phase "boot"), registers functions
	// ("register") and preloads data ("preload").
	setup func(e *episode, tiny bool)
	// start launches the load at the beginning of the warm-up; mid,
	// when set, runs before measured slice i; finish drains the load
	// once the episode has stopped it.
	start  func(e *episode)
	mid    func(e *episode, i int)
	finish func(e *episode) drained
	// check returns workload-specific violations.
	check func(e *episode, o *outcome) []string

	slice time.Duration // simulated time per measured slice
}

// slices is the number of slices an episode measures: enough that ten
// lie beyond the 99th percentile.
const slices = 1000

// warmupFor is the simulated time the load runs before measuring
// starts: executor metrics publish, scheduler views and caches fill.
const warmupFor = 2 * time.Second

// drained is what finish learned once the load ended. simReqs is the
// number of requests completed inside the measured phase when the
// ledger does not count them itself (the open loop), else -1.
type drained struct {
	simReqs      int64
	issued, lost int64
}

// runEpisode drives one episode of w and measures it.
func runEpisode(w *workload, seed int64, tiny, traced, corrupt bool) (*outcome, error) {
	// Each timed phase starts from a collected heap, so no phase pays
	// for collecting garbage an earlier one left. What is live now is the
	// benchmark's own, such as earlier episodes' outcomes; heap_live_mb
	// leaves it out.
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	e := &episode{seed: seed, traced: traced, corrupt: corrupt, began: cpuNow()}
	e.led.digest = fnv.New64a()
	w.setup(e, tiny)
	e.timed("warmup", func() {
		w.start(e)
		e.c.Run(func(cl *cb.Client) { cl.Sleep(warmupFor) })
	})
	o := &outcome{traced: traced}
	for _, p := range []string{"boot", "register", "preload", "warmup"} {
		o.setupS += phaseLen(e.phases, p)
	}

	// The first chunk of the process builds the calibration state, so
	// it runs before the allocation counters are read.
	var cal calibrator
	cal.chunk()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	o.before = snapshot(e)
	ledBefore := e.led.completed
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	sliceMS := make([]float64, 0, slices)
	runtime.ReadMemStats(&ms0)
	simStart := e.c.Now()
	measureStart := cpuNow()
	for i := 0; i < slices; i++ {
		if w.mid != nil {
			w.mid(e, i)
		}
		t0 := cpuNow()
		e.c.Run(func(cl *cb.Client) { cl.Sleep(w.slice) })
		sliceMS = append(sliceMS, float64(cpuNow()-t0)/1e6)
		cal.due()
	}
	runtime.ReadMemStats(&ms1)
	if traced {
		pprof.StopCPUProfile()
		o.profile = prof.Bytes()
	}
	e.mark("measure", measureStart)
	for _, ms := range sliceMS {
		o.sliceSumMS += ms
	}
	o.sliceP50MS, o.sliceP99MS = percentile(sliceMS, 0.50), percentile(sliceMS, 0.99)
	o.simSeconds = (e.c.Now() - simStart).Seconds()
	o.after = snapshot(e)
	o.simReqs = e.led.completed - ledBefore
	o.mallocs = ms1.Mallocs - ms0.Mallocs
	o.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	o.gcCycles = ms1.NumGC - ms0.NumGC
	o.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	var live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	o.heapLiveMB = float64(int64(live.HeapAlloc)-int64(base.HeapAlloc)) / (1 << 20)

	e.stop = true
	drainStart := cpuNow()
	d := w.finish(e)
	if d.simReqs >= 0 {
		o.simReqs = d.simReqs
	}
	o.after.trafficIssued, o.after.trafficLost = d.issued, d.lost
	e.mark("drain", drainStart)
	if traced {
		all := e.c.Trace().Summaries()
		o.summaries = append([]trace.Summary(nil), all...)
	}
	o.checks = w.check(e, o)
	o.attempted, o.failed, o.firstErr = e.led.attempted, e.led.failed, e.led.firstErr
	h := e.led.digest
	h.Write([]byte(strconv.Itoa(o.after.vms) + "/" + strconv.Itoa(o.after.storedKeys)))
	o.digest = fmt.Sprintf("%016x", h.Sum64())

	o.scale = cal.scale()
	// Close takes under a millisecond, far less than a contention burst,
	// so the chunks just before and after it calibrate it.
	runtime.GC()
	var closing calibrator
	closing.chunk()
	e.timed("teardown", e.c.Close)
	closing.chunk()
	o.teardownS = phaseLen(e.phases, "teardown")
	o.closeScale = closing.scale()
	o.phases = e.phases
	// Workloads keep their last episode until the next one's set-up;
	// without its cluster it holds little.
	e.c, e.in = nil, nil
	return o, nil
}

// percentile returns the q-quantile of xs by linear interpolation.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// median returns the middle value of xs.
func median(xs []float64) float64 { return percentile(xs, 0.5) }
