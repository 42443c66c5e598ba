package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	fsicp "fsicp"
	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/progen"
)

// corpusConfig is the 10 241-procedure corpus shape
// (progen -modules 32 -procs 320); the seed picks the corpus.
func corpusConfig(seed int64) progen.ModuleConfig {
	return progen.ModuleConfig{Seed: seed, Modules: 32, ProcsPerModule: 320}
}

// coldCorpus is what a CLI user pays on every run: a cold LoadDir of
// the corpus, the flow-sensitive analysis, and its constants. Before
// each iteration the heap is collected and its memory returned to the
// operating system, so every iteration, like a fresh process, starts
// from the same small heap and pays for mapping its memory again.
func coldCorpus(seed int64, dur time.Duration, traced bool) (*run, error) {
	dir, key, err := writeCorpus(seed)
	if err != nil {
		return nil, err
	}
	ref, err := corpusRef(dir, key)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()

	r := &run{}
	untimed := dur
	if traced {
		untimed = dur / 2
	}
	// The first iteration is the set-up: it pays whatever the process
	// initialises on first use, and is kept out of the op statistics.
	var setup float64
	var times []float64
	var allocs uint64
	var digests []string
	var last []constant
	var prog *fsicp.Program // the last iteration's, for the FI check
	peak := startHeapPeak()
	var start time.Time
	for i := 0; i <= 3 || time.Since(start) < untimed; i++ {
		prog = nil
		debug.FreeOSMemory()
		a0, _ := readHeap()
		t0 := time.Now()
		p, err := fsicp.LoadDir(dir, fsicp.LoadOptions{})
		if err != nil {
			peak.Stop()
			return nil, err
		}
		cs := p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive}).Constants()
		d := time.Since(t0)
		a1, _ := readHeap()
		prog = p
		last = facadeConstants(cs)
		digests = append(digests, digest(last))
		if i == 0 {
			setup = d.Seconds()
			start = time.Now()
			continue
		}
		times = append(times, ms(d))
		allocs += a1 - a0
		r.attempted++
	}
	peakMiB := peak.Stop()

	r.samples = times
	r.e2e("setup_s", setup, "s")
	r.e2e("op_p50_ms", median(times), "ms")
	r.e2e("ops_per_s", float64(len(times))/sum(times)*1000, "1/s")
	r.e2e("peak_heap_mib", peakMiB, "MiB")
	r.e2e("alloc_mib", mib(allocs)/float64(len(times)), "MiB")
	r.e2e("fs_constants", float64(len(last)), "count")

	// Checks, outside the timed region.
	for i, d := range digests {
		if d != digests[0] {
			r.fail("iteration %d report differs from iteration 0", i)
		}
	}
	r.failAll("FS vs interpreter", checkSound(last, ref))
	fi := facadeConstants(prog.Analyze(fsicp.Config{Method: fsicp.FlowInsensitive}).Constants())
	prog = nil
	r.failAll("FI vs interpreter", checkSound(fi, ref))
	r.failAll("FI ⊑ FS", checkRefines(fi, last))

	if traced {
		runtime.GC()
		if err := coldCorpusTraced(r, dir, dur-untimed, median(times), last); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// coldCorpusTraced repeats the cold iteration through the layer calls
// fsicp.LoadDir and Analyze make, with a span around each.
func coldCorpusTraced(r *run, dir string, dur time.Duration, untracedMs float64, want []constant) error {
	tr := newTracer()
	var times []float64
	var srcBytes int64
	var backEdges int
	rt0 := readRuntime()
	start := time.Now()
	for len(times) < 2 || time.Since(start) < dur {
		debug.FreeOSMemory()
		tr.nextOp()
		t0 := time.Now()
		op := tr.begin("cold")
		ctx, n, err := layeredLoad(tr, dir, 0)
		if err != nil {
			return err
		}
		res := tracedAnalyze(tr, "icp", ctx, icp.Options{Method: icp.FlowSensitive, DropIntra: true})
		var cs []constant
		tr.timed("constants", func() { cs = entryConstants(ctx, res) })
		tr.end(op)
		times = append(times, ms(time.Since(t0)))
		srcBytes = n
		backEdges, _ = ctx.CG.BackEdgeRatio()
		r.failAll("traced run vs facade", checkSame(cs, want))
	}
	rt1 := readRuntime()
	ops := float64(len(times))
	ls := tr.layers()
	busy := func(name string) float64 { return float64(get(ls, name).SelfNs) / 1e6 / ops }
	alloc := func(name string) float64 { return mib(get(ls, name).AllocBytes) / ops }
	for _, l := range []string{"parse", "sem", "irbuild", "callgraph", "alias", "modref", "clobbers", "ssa"} {
		r.layer(l+".busy_ms", busy(l), "ms")
	}
	for _, l := range []string{"parse", "sem", "irbuild", "modref", "ssa"} {
		r.layer(l+".alloc_mib", alloc(l), "MiB")
	}
	r.layer("parse.mib_per_s", mib(uint64(srcBytes))/(busy("parse")/1000), "MiB/s")
	r.layer("irbuild.live_heap_mib", mib(get(ls, "irbuild").HeapAfter), "MiB")
	r.layer("ssa.live_heap_mib", mib(get(ls, "ssa").HeapAfter), "MiB")
	r.layer("callgraph.back_edges", float64(backEdges), "count")
	// The FS Analyze call's FI prelude and FS wavefront are the
	// analysis's own pass records, children of the "icp" span; only
	// the whole call's allocation is measurable from outside.
	r.layer("icp.fi.busy_ms", busy("icp.fi"), "ms")
	r.layer("icp.fs.busy_ms", busy("icp.fs"), "ms")
	r.layer("icp.fs.alloc_mib", alloc("icp"), "MiB")
	r.layer("constants.busy_ms", busy("constants"), "ms")
	gcLayers(r, rt0, rt1, ops)
	r.layer("trace.overhead_ratio", median(times)/untracedMs, "ratio")
	r.spans = tr
	return nil
}

// gcLayers reports the Go runtime's collector as a layer: cycles per op
// and its share of all CPU time between two readings.
func gcLayers(r *run, a, b runtimeSnap, ops float64) {
	r.layer("gc.cycles", float64(b.gcCycles-a.gcCycles)/ops, "count")
	share := 0.0
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		share = (b.gcCPU - a.gcCPU) / cpu
	}
	r.layer("gc.cpu_share", share, "ratio")
}

func get(ls map[string]*layerStats, name string) *layerStats {
	if s := ls[name]; s != nil {
		return s
	}
	return &layerStats{}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func facadeConstants(cs []fsicp.Constant) []constant {
	out := make([]constant, len(cs))
	for i, c := range cs {
		out[i] = constant{Proc: c.Proc, Var: c.Var, Value: c.Value}
	}
	return out
}

// writeCorpus generates the seed's corpus into the state directory and
// returns its path and a content hash naming its reference trace.
func writeCorpus(seed int64) (dir, key string, err error) {
	files, m := progen.GenerateModules(corpusConfig(seed))
	dir = filepath.Join(stateDir, "corpus", fmt.Sprintf("seed%d", seed))
	if err := os.RemoveAll(dir); err != nil {
		return "", "", err
	}
	if err := progen.WriteCorpus(dir, files, m); err != nil {
		return "", "", err
	}
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "%s\x00%d\x00%s", f.Name, len(f.Src), f.Src)
	}
	return dir, hex.EncodeToString(h.Sum(nil))[:24], nil
}

// corpusRef returns the reference interpreter trace for the corpus,
// reusing the one stored by an earlier invocation on the same corpus:
// interpreting 10k procedures takes far longer than one measured run.
func corpusRef(dir, key string) (*refTrace, error) {
	path := filepath.Join(stateDir, "ref", key+".gob")
	if ref, ok := loadRef(path); ok {
		return ref, nil
	}
	ctx, _, err := layeredLoad(nil, dir, 0)
	if err != nil {
		return nil, err
	}
	ctx.InvalidateSSA() // the interpreter runs the IR; free the SSA forms first
	runtime.GC()
	ref := newRefTrace(interp.Run(ctx.Prog, interp.Options{MaxSteps: 100_000_000}))
	if !ref.Complete {
		return nil, fmt.Errorf("reference run of %s did not finish in %d steps", dir, ref.Steps)
	}
	return ref, storeRef(path, ref)
}
