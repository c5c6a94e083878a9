package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// lastLine decodes the result line a run prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// notes keeps the lines of a run's output that describe workloads and
// violations, dropping metric tables and the result line.
func notes(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if l != "" && !strings.HasPrefix(l, " ") && !strings.HasPrefix(l, "{") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

// TestEveryMetricReported runs every workload at its tiny size, traced
// and untraced, and checks that each end-to-end and per-layer metric is
// reported with its unit and that every check passed.
func TestEveryMetricReported(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"--workload", "all", "--tiny", "--seconds", "0", "--out", t.TempDir()}, &out, io.Discard)
	r := lastLine(t, out.String())
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("exit %d, correct %v, %d of %d failed\n%s", code, r.Correct, r.Failed, r.Attempted, notes(out.String()))
	}
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			got, ok := r.Metrics[w.name+"."+d.Name]
			if !ok || got.Unit != d.Unit || got.Unit == "" {
				t.Errorf("%s: metric %s reported as %+v (present %v), want unit %q", w.name, d.Name, got, ok, d.Unit)
			}
		}
	}
}

// TestSingleWorkloadOutput checks the result line of a single workload:
// --trace 0 carries exactly the end-to-end metrics, --trace 1 the
// per-layer ones.
func TestSingleWorkloadOutput(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		args := []string{"--workload", "openloop-dagmix", "--tiny", "--seconds", "0", "--trace", tc.trace, "--out", t.TempDir()}
		if code := run(args, &out, io.Discard); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, notes(out.String()))
		}
		r := lastLine(t, out.String())
		if len(r.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(r.Metrics), len(tc.want))
		}
		for _, d := range tc.want {
			if _, ok := r.Metrics[d.Name]; !ok {
				t.Errorf("trace %s: missing %s", tc.trace, d.Name)
			}
		}
	}
}

// TestCorruptedExpectationFails skews every value the benchmark expects
// and checks that each workload's correctness check trips.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range workloads {
		o, err := runEpisode(w, 1, true, false, true)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed == 0 {
			t.Errorf("%s: %d requests with corrupted expectations all passed", w.name, o.attempted)
		}
	}
}

// TestTracingChangesNoCount runs each workload untraced and traced on
// one seed: the digests and every deterministic count must agree.
func TestTracingChangesNoCount(t *testing.T) {
	for _, w := range workloads {
		plain, err := runEpisode(w, 2, true, false, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runEpisode(w, 2, true, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: sim_digest %s untraced, %s traced", w.name, plain.digest, traced.digest)
		}
		a, b := countMetrics(plain), countMetrics(traced)
		for _, k := range sortedKeys(a) {
			if a[k] != b[k] {
				t.Errorf("%s: %s = %v untraced, %v traced", w.name, k, a[k], b[k])
			}
		}
		if len(traced.profile) == 0 || len(traced.summaries) == 0 {
			t.Errorf("%s: traced episode has no profile or trace summaries", w.name)
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json lists
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Why string }
	var got struct {
		Workloads []named
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	var want []named
	for _, w := range workloads {
		want = append(want, named{w.name, w.why})
	}
	if !reflect.DeepEqual(got.Workloads, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", got.Workloads, want)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", got.PerLayer, perLayer)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "sort.Strings", "cloudburst/internal/anna.(*tieredStore).each", "cloudburst/internal/vtime.(*proc).top"}, "anna"},
		{[]string{"cloudburst/internal/vtime.(*Chan[cloudburst/internal/simnet.Message]).Recv", "cloudburst/internal/simnet.(*Dispatcher).Serve"}, "vtime"},
		{[]string{"cloudburst.(*Client).Invoke", "main.main"}, "api"},
		{[]string{"runtime.mallocgc", "main.value"}, "bench"},
		{[]string{"cloudburst/internal/fault.(*Injector).Fire"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime/pprof.profileWriter"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestCalibrationChunkAllocatesNothing keeps calibration out of the
// measured phase's allocation and garbage-collector figures.
func TestCalibrationChunkAllocatesNothing(t *testing.T) {
	calibrationChunk()
	if n := testing.AllocsPerRun(20, calibrationChunk); n != 0 {
		t.Errorf("calibrationChunk allocates %v times per run", n)
	}
}
