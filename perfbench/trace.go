package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program). Op groups the spans of one
// measured operation; Parent is the index of the enclosing span, -1 at
// the top.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// AllocBytes is the heap allocated during the span
	// (/gc/heap/allocs:bytes delta); HeapAfter the heap object bytes
	// when it ended.
	AllocBytes uint64 `json:"alloc_bytes"`
	HeapAfter  uint64 `json:"heap_after_bytes"`

	allocStart uint64
}

// tracer keeps spans in memory and writes them out once, at exit. It is
// used from one goroutine; a nil *tracer records nothing, so the
// untraced runs pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// nextOp starts a new operation: spans begun after it carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span under the current one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	allocs, _ := readHeap()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.cur,
		Start: int64(time.Since(t.t0)), allocStart: allocs})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	allocs, heap := readHeap()
	s.AllocBytes = allocs - s.allocStart
	s.HeapAfter = heap
	t.cur = s.Parent
}

// timed records fn as one span.
func (t *tracer) timed(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// child records the interval [at, at+d] of the tracer clock as a span
// under the current one: used for the per-pass records the analysis
// reports about its own phases, which the benchmark cannot wrap.
func (t *tracer) child(name string, at, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.cur,
		Start: int64(at), End: int64(at + d)})
}

// now is the tracer clock, for child.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// layerStats aggregates the spans by name: total self time (duration
// minus the time covered by direct children), total duration, total
// allocation, and the heap after the last span of that name.
type layerStats struct {
	SelfNs     int64
	TotalNs    int64
	AllocBytes uint64
	HeapAfter  uint64
}

func (t *tracer) layers() map[string]*layerStats {
	out := make(map[string]*layerStats)
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.SelfNs += s.End - s.Start - childNs[i]
		ls.TotalNs += s.End - s.Start
		ls.AllocBytes += s.AllocBytes
		ls.HeapAfter = s.HeapAfter
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// Runtime counters read through runtime/metrics, which, unlike
// runtime.ReadMemStats, does not stop the world.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mHeap     = "/memory/classes/heap/objects:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU   = "/cpu/classes/total:cpu-seconds"
)

func readHeap() (allocs, heap uint64) {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runtimeSnap is a point-in-time reading of the GC counters.
type runtimeSnap struct {
	gcCycles      uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mAllCPU}}
	metrics.Read(s)
	return runtimeSnap{gcCycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}
