package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cloudburst/internal/trace"
)

// runOpts configures one workload's run.
type runOpts struct {
	seed   int64
	budget time.Duration
	traced bool
	tiny   bool
	out    string
}

// report is one workload's run: its episodes and derived metrics.
type report struct {
	untraced, traced []*outcome
	violations       []string
	endToEnd         map[string]metricValue
	perLayer         map[string]metricValue
}

// allMetrics merges the end-to-end and per-layer metrics.
func (r *report) allMetrics() map[string]metricValue {
	all := map[string]metricValue{}
	for _, m := range []map[string]metricValue{r.endToEnd, r.perLayer} {
		for k, v := range m {
			all[k] = v
		}
	}
	return all
}

// result builds the output line for the given metrics.
func (r *report) result(metrics map[string]metricValue) result {
	res := result{Correct: len(r.violations) == 0, Metrics: map[string]metricValue{}}
	for k, v := range metrics {
		res.Metrics[k] = v
	}
	for _, o := range append(append([]*outcome(nil), r.untraced...), r.traced...) {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	return res
}

// runWorkload repeats episodes of w on one seed until the time budget
// is spent: untraced episodes for the end-to-end metrics, then, when
// traced, as many traced ones for the per-layer metrics. Each half runs
// at least one episode.
func runWorkload(w *workload, opts runOpts, stdout io.Writer) (*report, error) {
	rep := &report{}
	budget := opts.budget
	if opts.traced {
		budget /= 2
	}
	var err error
	if rep.untraced, err = episodes(w, opts, false, budget); err != nil {
		return nil, err
	}
	if opts.traced {
		if rep.traced, err = episodes(w, opts, true, budget); err != nil {
			return nil, err
		}
	}
	rep.violations = verify(rep)
	rep.endToEnd = endToEndMetrics(rep.untraced)
	first := rep.untraced[0]
	fmt.Fprintf(stdout, "workload %s (%s loop): %s, %d×%v slices\n", w.name, w.loop, w.size(opts.tiny), slices, w.slice)
	fmt.Fprintf(stdout, "seed %d, gomaxprocs %d, episodes %d untraced + %d traced, %d simulated requests per episode\n",
		opts.seed, runtime.GOMAXPROCS(0), len(rep.untraced), len(rep.traced), first.simReqs)
	fmt.Fprintf(stdout, "calibration chunk: median %.4f ms, reference %.2f ms\n", calibrationMS(rep.untraced), refChunkMS)
	fmt.Fprintf(stdout, "sim_digest %s %s\n", w.name, first.digest)
	for _, v := range rep.violations {
		fmt.Fprintln(stdout, "VIOLATION:", v)
	}
	if opts.traced {
		buckets, err := profileBuckets(rep.traced)
		if err != nil {
			return nil, err
		}
		if rep.perLayer, err = perLayerMetrics(rep, buckets); err != nil {
			return nil, err
		}
		if err := writeArtifacts(w, opts, rep, buckets); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// episodes runs at least one episode, and more while the next one, as
// long as the last, still fits in budget.
func episodes(w *workload, opts runOpts, traced bool, budget time.Duration) ([]*outcome, error) {
	var out []*outcome
	start := time.Now()
	var last time.Duration
	for len(out) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		o, err := runEpisode(w, opts.seed, opts.tiny, traced, false)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
		last = time.Since(t0)
	}
	return out, nil
}

// verify checks every episode's results and the determinism oracle:
// every episode of the seed, traced or not, must produce the same
// digest and the same deterministic counts.
func verify(rep *report) []string {
	var v []string
	all := append(append([]*outcome(nil), rep.untraced...), rep.traced...)
	ref := all[0]
	refCounts := countMetrics(ref)
	for i, o := range all {
		tag := fmt.Sprintf("episode %d (traced %v)", i, o.traced)
		if o.failed > 0 {
			v = append(v, fmt.Sprintf("%s: %d of %d requests failed; first: %s", tag, o.failed, o.attempted, o.firstErr))
		}
		c := countMetrics(o)
		if n := c["codec.gob_ops"]; n != 0 {
			v = append(v, fmt.Sprintf("%s: %v gob codec operations", tag, n))
		}
		if n := c["traffic.lost"]; n != 0 {
			v = append(v, fmt.Sprintf("%s: %v requests lost", tag, n))
		}
		for _, msg := range o.checks {
			v = append(v, tag+": "+msg)
		}
		if o.digest != ref.digest {
			v = append(v, fmt.Sprintf("%s: sim_digest %s differs from %s", tag, o.digest, ref.digest))
		}
		for _, k := range sortedKeys(refCounts) {
			if c[k] != refCounts[k] {
				v = append(v, fmt.Sprintf("%s: %s = %v, first episode had %v", tag, k, c[k], refCounts[k]))
			}
		}
	}
	return v
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// endToEndMetrics derives the host costs from untraced episodes:
// medians across episodes, each episode's host times first scaled to
// the reference machine.
func endToEndMetrics(eps []*outcome) map[string]metricValue {
	var thr, p50, p99, setup, tear, allocs, bytes, heap []float64
	for _, o := range eps {
		req := float64(o.simReqs)
		thr = append(thr, ratio(req, o.sliceSumMS*o.scale/1e3))
		p50 = append(p50, o.sliceP50MS*o.scale)
		p99 = append(p99, o.sliceP99MS*o.scale)
		setup = append(setup, o.setupS*o.scale)
		tear = append(tear, o.teardownS*o.closeScale)
		allocs = append(allocs, ratio(float64(o.mallocs), req))
		bytes = append(bytes, ratio(float64(o.allocBytes), req))
		heap = append(heap, o.heapLiveMB)
	}
	vals := map[string]float64{
		"sim_req_per_host_s":     median(thr),
		"slice_host_ms_p50":      median(p50),
		"slice_host_ms_p99":      median(p99),
		"setup_s":                median(setup),
		"teardown_s":             median(tear),
		"allocs_per_simreq":      median(allocs),
		"alloc_bytes_per_simreq": median(bytes),
		"heap_live_mb":           median(heap),
	}
	out := map[string]metricValue{}
	for _, d := range endToEnd {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// calibrationMS is the median calibration chunk time of the episodes,
// in raw host ms.
func calibrationMS(eps []*outcome) float64 {
	var xs []float64
	for _, o := range eps {
		xs = append(xs, refChunkMS/o.scale)
	}
	return median(xs)
}

// perLayerMetrics derives the per-layer metrics: counts from the first
// traced episode, runtime and set-up figures from the untraced ones,
// busy time from the traced episodes' CPU nanoseconds per bucket and
// waiting from their trace summaries.
func perLayerMetrics(rep *report, buckets map[string]int64) (map[string]metricValue, error) {
	vals := countMetrics(rep.traced[0])
	var gcCycles, gcPause []float64
	for _, o := range rep.untraced {
		gcCycles = append(gcCycles, float64(o.gcCycles))
		gcPause = append(gcPause, o.gcPauseMS)
	}
	vals["runtime.gc_cycles"] = median(gcCycles)
	vals["runtime.gc_pause_ms"] = median(gcPause)
	for _, p := range []string{"boot", "register", "preload", "warmup"} {
		var xs []float64
		for _, o := range rep.untraced {
			xs = append(xs, phaseLen(o.phases, p)*o.scale)
		}
		vals["setup."+p+"_s"] = median(xs)
	}
	vals["bench.calibration_ms"] = calibrationMS(rep.untraced)

	var total int64
	for _, ns := range buckets {
		total += ns
	}
	for _, b := range layerBuckets {
		vals[cpuMetric(b)] = ratio(float64(buckets[b]), float64(total))
	}
	var simS, dispatches, simReqs float64
	var sums []trace.Summary
	for _, o := range rep.traced {
		simS += o.simSeconds
		dispatches += float64(o.after.kernel.Dispatches - o.before.kernel.Dispatches)
		simReqs += float64(o.simReqs)
		sums = append(sums, o.summaries...)
	}
	vals["anna.cpu_ms_per_sim_s"] = ratio(float64(buckets["anna"])/1e6, simS)
	vals["vtime.ns_per_dispatch"] = ratio(float64(buckets["vtime"]), dispatches)
	vals["scheduler.ns_per_simreq"] = ratio(float64(buckets["scheduler"]), simReqs)

	var wall time.Duration
	var byCat [trace.NumCategories]time.Duration
	for _, s := range sums {
		wall += s.Wall
		for c := range byCat {
			byCat[c] += s.ByCat[c]
		}
	}
	for _, c := range waitCategories {
		vals["wait."+c.String()+"_frac"] = ratio(float64(byCat[c]), float64(wall))
	}
	untracedThr := rep.endToEnd["sim_req_per_host_s"].Value
	vals["trace.overhead_frac"] = 1 - ratio(endToEndMetrics(rep.traced)["sim_req_per_host_s"].Value, untracedThr)

	out := map[string]metricValue{}
	for _, d := range perLayer {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no value", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// phaseLen returns the length of the named phase.
func phaseLen(ps []phase, name string) float64 {
	for _, p := range ps {
		if p.Name == name {
			return p.End - p.Start
		}
	}
	return 0
}

// profileBuckets sums the CPU attribution of every episode's profile.
func profileBuckets(eps []*outcome) (map[string]int64, error) {
	out := map[string]int64{}
	for _, o := range eps {
		p, err := parseCPUProfile(o.profile)
		if err != nil {
			return nil, err
		}
		for b, ns := range attribute(p) {
			out[b] += ns
		}
	}
	return out, nil
}

// writeArtifacts writes the traced run's phase spans, bucketed profile
// and raw profiles under opts.out.
func writeArtifacts(w *workload, opts runOpts, rep *report, buckets map[string]int64) error {
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	base := filepath.Join(opts.out, fmt.Sprintf("%s-seed%d", w.name, opts.seed))
	type epPhases struct {
		Traced bool    `json:"traced"`
		Phases []phase `json:"phases"`
	}
	doc := struct {
		Workload  string                 `json:"workload"`
		Seed      int64                  `json:"seed"`
		Digest    string                 `json:"sim_digest"`
		CPUNs     map[string]int64       `json:"cpu_ns_by_bucket"`
		Episodes  []epPhases             `json:"episodes"`
		PerLayer  map[string]metricValue `json:"per_layer"`
		EndToEnd  map[string]metricValue `json:"end_to_end"`
		Violation []string               `json:"violations"`
	}{w.name, opts.seed, rep.untraced[0].digest, buckets, nil, rep.perLayer, rep.endToEnd, rep.violations}
	for _, o := range append(append([]*outcome(nil), rep.untraced...), rep.traced...) {
		doc.Episodes = append(doc.Episodes, epPhases{o.traced, o.phases})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	for i, o := range rep.traced {
		if err := os.WriteFile(fmt.Sprintf("%s-ep%d.cpu.pprof", base, i), o.profile, 0o644); err != nil {
			return fmt.Errorf("artifacts: %w", err)
		}
	}
	return nil
}
