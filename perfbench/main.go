// Command perfbench is the repository's benchmark. It runs one of three
// workloads through the public facade (fsicp.LoadDir/Load/Analyze/
// Session) or the daemon's HTTP handler, checks every output against a
// reference that does not come from the analysis under test, and prints
// one JSON result line:
//
//	perfbench --workload cold-corpus --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// additionally makes a traced run that times every layer call from this
// package and reports the per-layer metrics, writing the spans to
// .perfbench/spans/. Generated inputs, reference traces and build
// outputs live under .perfbench/ in the working directory. See
// perfbench/LAYERS.md for what each metric means and which end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// stateDir holds everything the benchmark generates, relative to the
// working directory (the repository root).
const stateDir = ".perfbench"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the measured outcome of one workload invocation. Problems are
// correctness-check failures; a non-empty list makes the run incorrect.
type run struct {
	attempted, failed int
	samples           []float64 // op latencies (ms), printed to standard error
	endToEnd          map[string]metric
	perLayer          map[string]metric
	problems          []string
	spans             *tracer
}

func (r *run) e2e(name string, v float64, unit string) {
	if r.endToEnd == nil {
		r.endToEnd = make(map[string]metric)
	}
	r.endToEnd[name] = metric{v, unit}
}

func (r *run) layer(name string, v float64, unit string) {
	if r.perLayer == nil {
		r.perLayer = make(map[string]metric)
	}
	r.perLayer[name] = metric{v, unit}
}

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) failAll(prefix string, bad []string) {
	for i, b := range bad {
		if i == 5 {
			r.fail("%s: ... %d more", prefix, len(bad)-5)
			break
		}
		r.fail("%s: %s", prefix, b)
	}
}

// endToEnd lists the end-to-end metrics every workload reports, as
// BENCHMARK.json does.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"op_p50_ms", "ms"}, {"ops_per_s", "1/s"},
	{"peak_heap_mib", "MiB"}, {"alloc_mib", "MiB"}, {"fs_constants", "count"},
}

// perLayer lists every per-layer metric, as BENCHMARK.json does.
var perLayer = []struct{ name, unit string }{
	{"parse.busy_ms", "ms"}, {"parse.alloc_mib", "MiB"}, {"parse.mib_per_s", "MiB/s"},
	{"sem.busy_ms", "ms"}, {"sem.alloc_mib", "MiB"},
	{"irbuild.busy_ms", "ms"}, {"irbuild.alloc_mib", "MiB"}, {"irbuild.live_heap_mib", "MiB"},
	{"callgraph.busy_ms", "ms"}, {"callgraph.back_edges", "count"},
	{"alias.busy_ms", "ms"},
	{"modref.busy_ms", "ms"}, {"modref.alloc_mib", "MiB"},
	{"clobbers.busy_ms", "ms"},
	{"ssa.busy_ms", "ms"}, {"ssa.alloc_mib", "MiB"}, {"ssa.live_heap_mib", "MiB"},
	{"icp.fi.busy_ms", "ms"}, {"icp.fi.alloc_mib", "MiB"},
	{"icp.fi_defer.busy_ms", "ms"}, {"icp.fi_defer.alloc_mib", "MiB"},
	{"icp.fs.busy_ms", "ms"}, {"icp.fs.alloc_mib", "MiB"},
	{"icp.iter.busy_ms", "ms"}, {"icp.iter.alloc_mib", "MiB"},
	{"icp.returns.busy_ms", "ms"}, {"icp.returns.alloc_mib", "MiB"},
	{"icp.fs_over_fi_defer", "ratio"}, {"icp.iter_over_fs", "ratio"},
	{"jumpfunc.literal.busy_ms", "ms"}, {"jumpfunc.intra.busy_ms", "ms"},
	{"jumpfunc.passthrough.busy_ms", "ms"}, {"jumpfunc.polynomial.busy_ms", "ms"},
	{"metrics.busy_ms", "ms"}, {"constants.busy_ms", "ms"},
	{"session.update.busy_ms", "ms"}, {"session.analyze.busy_ms", "ms"},
	{"report.busy_ms", "ms"}, {"serve.self_ms", "ms"},
	{"incr.reuse_ratio", "ratio"}, {"incr.hit_ratio", "ratio"},
	{"store.disk_hit_ratio", "ratio"},
	{"cold_ref.busy_ms", "ms"}, {"incr.speedup_vs_cold", "ratio"},
	{"gc.cycles", "count"}, {"gc.cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type workload struct {
	name string
	run  func(seed int64, seconds time.Duration, traced bool) (*run, error)
}

var workloads = []workload{
	{"cold-corpus", coldCorpus},
	{"method-matrix", methodMatrix},
	{"serve-edits", serveEdits},
}

func main() {
	name := flag.String("workload", "", "workload: cold-corpus, method-matrix or serve-edits")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 20, "measurement duration in seconds")
	trace := flag.Int("trace", 0, "1: also make the traced run and report per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-corpus|method-matrix|serve-edits, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	r, err := w.run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.spans != nil {
		path := filepath.Join(stateDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(r.spans.spans), path)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d op latencies (ms), median %.2f, p90 %.2f, min %.2f, max %.2f\n",
		len(r.samples), median(r.samples), quantile(r.samples, 0.9), quantile(r.samples, 0), quantile(r.samples, 1))
	if len(r.samples) <= 32 {
		fmt.Fprintf(os.Stderr, "  %.1f\n", r.samples)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.endToEnd}
	for _, m := range endToEnd {
		if got, ok := r.endToEnd[m.name]; !ok || got.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s in %s\n", w.name, m.name, m.unit)
			os.Exit(1)
		}
	}
	if *trace == 1 {
		// Every traced run reports every layer; a layer the workload
		// does not call reads 0.
		out.Metrics = make(map[string]metric)
		for _, l := range perLayer {
			out.Metrics[l.name] = metric{r.perLayer[l.name].Value, l.unit}
		}
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
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
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapPeak samples the heap object bytes from a background goroutine
// through runtime/metrics (no stop-the-world) and keeps the peak.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: mHeap}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak.Load() {
		h.peak.Store(v)
	}
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	return mib(h.peak.Load())
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
