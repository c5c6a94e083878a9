// Command perfbench is the host-cost benchmark of this repository. It
// boots Cloudburst clusters on the virtual-time simulator, drives one of
// three workloads, checks that the simulated results are correct and
// deterministic, and reports what simulating them cost the host: time,
// allocations and memory end to end, and work counts, CPU shares and
// simulated waiting per layer. See README.md.
//
//	bash perfbench/run.sh --workload autoscale-zipf --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload all   # every metric of every workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cloudburst/internal/trace"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the host costs a user of the simulator sees. Bound is
// the share of the parent's median by which a metric may worsen.
//
// Host times are scaled by calibration (see calibrator); ten seeds
// still spread them by up to about 10% on the shared 2-core machine the
// bounds were set on, so every time metric gets the widest bound.
// Allocation and heap figures vary only with the seed's inputs, by a
// few percent.
var endToEnd = []metricDef{
	{"sim_req_per_host_s", "1/s", "higher", 0.25},
	{"slice_host_ms_p50", "ms", "lower", 0.25},
	{"slice_host_ms_p99", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"teardown_s", "s", "lower", 0.25},
	{"allocs_per_simreq", "count", "lower", 0.15},
	{"alloc_bytes_per_simreq", "B", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer lists the per-layer metrics of a traced run.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Deterministic work counts (identical in traced and untraced runs).
	add("count", "lower", "vtime.dispatches", "vtime.timer_fires", "vtime.spawns")
	add("frac", "higher", "vtime.proc_reuse_frac")
	add("count", "lower", "vtime.live_procs_end", "simnet.msgs")
	add("B", "lower", "simnet.bytes")
	add("count", "lower", "simnet.msgs_per_simreq", "simnet.dropped",
		"codec.struct_encodes", "codec.struct_decodes", "codec.gob_ops",
		"anna.stored_keys", "anna.cache_get_rpcs", "anna.cache_multiget_keys",
		"anna.cache_put_rpcs", "anna.monitor_rpcs", "cache.resident_keys")
	add("frac", "lower", "cache.miss_frac")
	add("count", "higher", "executor.completed")
	add("frac", "higher", "executor.memo_hit_frac")
	add("count", "lower", "scheduler.reexecutions", "scheduler.inflight_end")
	add("count", "higher", "scheduler.known_threads")
	add("count", "lower", "monitor.events", "cluster.vms_end", "cluster.net_nodes_end")
	add("count", "higher", "traffic.issued", "bench.sim_requests")
	add("count", "lower", "traffic.lost", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_ms")
	// Busy time from the CPU profile of the traced run.
	for _, b := range layerBuckets {
		add("frac", "lower", cpuMetric(b))
	}
	add("ms/s", "lower", "anna.cpu_ms_per_sim_s")
	add("ns", "lower", "vtime.ns_per_dispatch", "scheduler.ns_per_simreq")
	// Simulated waiting: shares of request wall time by trace category.
	for _, c := range waitCategories {
		add("frac", "lower", "wait."+c.String()+"_frac")
	}
	add("s", "lower", "setup.boot_s", "setup.register_s", "setup.preload_s", "setup.warmup_s")
	add("ms", "lower", "bench.calibration_ms")
	add("frac", "lower", "trace.overhead_frac")
	return out
}()

// waitCategories are the trace categories reported as wait.*_frac.
var waitCategories = []trace.Category{trace.Queue, trace.Dispatch, trace.KVS, trace.Cache, trace.Compute, trace.Network, trace.Retry}

// cpuMetric names a CPU bucket's share metric.
func cpuMetric(bucket string) string {
	if b, ok := strings.CutPrefix(bucket, "runtime."); ok {
		return "runtime." + b + "_cpu_frac"
	}
	return bucket + ".cpu_frac"
}

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark and returns the exit code: 0 when
// every check passed, 1 when a check failed, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed (validate claims on a second seed, e.g. 2)")
	seconds := fs.Float64("seconds", 40, "wall seconds to spend measuring, per workload")
	traced := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink every workload to a few seconds (tests)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for traced-run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// The simulation is serial: one vtime kernel hands a single token
	// between goroutines. On one P that handoff is a plain goroutine
	// switch; with more, each one may wake and spin an idle thread,
	// which made CPU time vary several times as much between runs.
	runtime.GOMAXPROCS(1)
	opts := runOpts{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1, tiny: *tiny, out: *out}
	if *name == "all" {
		return runAll(opts, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	rep, err := runWorkload(w, opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !opts.traced {
		return emit(stdout, rep.result(rep.endToEnd))
	}
	printTable(stdout, w.name, rep.allMetrics())
	return emit(stdout, rep.result(rep.perLayer))
}

// runAll measures every workload with tracing on and prints every
// metric; the last line carries them all, named <workload>.<metric>.
func runAll(opts runOpts, stdout, stderr io.Writer) int {
	opts.traced = true
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		rep, err := runWorkload(w, opts, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		r := rep.result(rep.allMetrics())
		printTable(stdout, w.name, r.Metrics)
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	return emit(stdout, all)
}

// emit prints the result line and returns the exit code.
func emit(stdout io.Writer, r result) int {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stdout, "perfbench: encode result:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !r.Correct {
		return 1
	}
	return 0
}

// printTable prints metrics sorted by name, one per line with unit.
func printTable(w io.Writer, title string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
