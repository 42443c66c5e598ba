package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	fsicp "fsicp"
	"fsicp/internal/bench"
	"fsicp/internal/icp"
	"fsicp/internal/interp"
	"fsicp/internal/jumpfunc"
	"fsicp/internal/soundness"
	"fsicp/internal/tables"
)

// suiteProgram is one program of the paper's evaluation: a SPECfp92
// (Tables 1–2, floats on) or first-release (Tables 3–4, floats off)
// profile, or Figure 1.
type suiteProgram struct {
	name   string
	table  string // "spec", "first" or "figure1"
	floats bool
	src    string
}

func paperSuite() []suiteProgram {
	var out []suiteProgram
	for _, p := range bench.SPECfp92() {
		out = append(out, suiteProgram{p.Name, "spec", true, bench.Build(p)})
	}
	for _, p := range bench.FirstRelease() {
		out = append(out, suiteProgram{p.Name, "first", false, bench.Build(p)})
	}
	return append(out, suiteProgram{"figure1", "figure1", true, tables.Figure1Source})
}

// The four jump-function kinds, in the paper's order.
var jumpKinds = []struct {
	name, row string
	kind      fsicp.JumpFunctionKind
}{
	{"literal", "LITERAL", fsicp.Literal},
	{"intra", "INTRA", fsicp.IntraConstant},
	{"passthrough", "PASS-THROUGH", fsicp.PassThrough},
	{"polynomial", "POLYNOMIAL", fsicp.Polynomial},
}

// programOutput is everything one sweep reads back from one program.
type programOutput struct {
	fi, fs, iter, returns []constant
	jump                  [4][]constant
	fiCalls, fsCalls      fsicp.CallSiteMetrics
	fiEntry, fsEntry      fsicp.EntryMetrics
	substitutions         int
}

// sweepProgram runs every method on one loaded program: FI, FI with
// the deferred per-procedure SCC (the paper's §4 comparison point, as
// tables.TimingTable measures it), FS, FS-iterative, FS with returns
// and refresh, the four jump-function baselines, and the table metrics.
func sweepProgram(tr *tracer, p *fsicp.Program, floats bool) programOutput {
	var out programOutput
	cfg := fsicp.Config{PropagateFloats: floats, Workers: 1}
	analyze := func(span string, method fsicp.Method, returns bool) (a *fsicp.Analysis) {
		c := cfg
		c.Method, c.ReturnConstants, c.ReturnsRefresh = method, returns, returns
		tr.timed(span, func() { a = p.Analyze(c) })
		return a
	}
	fi := analyze("icp.fi", fsicp.FlowInsensitive, false)
	out.fi = facadeConstants(fi.Constants())
	tr.timed("icp.fi_defer", func() {
		c := cfg
		c.Method = fsicp.FlowInsensitive
		out.substitutions, _, _ = p.Analyze(c).Substitutions()
	})
	fs := analyze("icp.fs", fsicp.FlowSensitive, false)
	out.fs = facadeConstants(fs.Constants())
	out.iter = facadeConstants(analyze("icp.iter", fsicp.FlowSensitiveIterative, false).Constants())
	out.returns = facadeConstants(analyze("icp.returns", fsicp.FlowSensitive, true).Constants())
	for i, k := range jumpKinds {
		tr.timed("jumpfunc."+k.name, func() {
			out.jump[i] = facadeConstants(p.AnalyzeJumpFunctions(k.kind).Constants())
		})
	}
	tr.timed("metrics", func() {
		out.fiCalls, out.fsCalls = fi.CallSiteMetrics(), fs.CallSiteMetrics()
		out.fiEntry, out.fsEntry = fi.EntryMetrics(), fs.EntryMetrics()
	})
	return out
}

// methodMatrix sweeps every method over the paper's suites, loaded once
// in set-up; the seed picks the order the programs are visited in.
func methodMatrix(seed int64, dur time.Duration, traced bool) (*run, error) {
	suite := paperSuite()
	rand.New(rand.NewSource(seed)).Shuffle(len(suite), func(i, j int) { suite[i], suite[j] = suite[j], suite[i] })

	r := &run{}
	var progs []*fsicp.Program
	var setups []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		progs = progs[:0]
		for _, sp := range suite {
			p, err := fsicp.Load(sp.name+".mf", sp.src)
			if err != nil {
				return nil, err
			}
			progs = append(progs, p)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	refs, err := suiteRefs(r, suite)
	if err != nil {
		return nil, err
	}

	untimed := dur
	if traced {
		untimed = dur / 2
	}
	sweep := func(tr *tracer) []programOutput {
		outs := make([]programOutput, len(progs))
		for i, p := range progs {
			outs[i] = sweepProgram(tr, p, suite[i].floats)
		}
		return outs
	}
	var times []float64
	var allocs uint64
	var last []programOutput
	runtime.GC()
	peak := startHeapPeak()
	start := time.Now()
	for len(times) < 10 || time.Since(start) < untimed {
		a0, _ := readHeap()
		t0 := time.Now()
		outs := sweep(nil)
		d := time.Since(t0)
		a1, _ := readHeap()
		times = append(times, ms(d))
		allocs += a1 - a0
		r.attempted++
		if bad := checkSweep(suite, outs, refs); len(bad) > 0 {
			r.failed++
			r.failAll(fmt.Sprintf("sweep %d", len(times)), bad)
		}
		last = outs
	}
	peakMiB := peak.Stop()

	fsConsts := 0
	for _, o := range last {
		fsConsts += len(o.fs)
	}
	r.samples = times
	r.e2e("setup_s", median(setups), "s")
	r.e2e("op_p50_ms", median(times), "ms")
	r.e2e("ops_per_s", float64(len(times))/sum(times)*1000, "1/s")
	r.e2e("peak_heap_mib", peakMiB, "MiB")
	r.e2e("alloc_mib", mib(allocs)/float64(len(times)), "MiB")
	r.e2e("fs_constants", float64(fsConsts), "count")

	if traced {
		tr := newTracer()
		var ttimes []float64
		rt0 := readRuntime()
		start := time.Now()
		for len(ttimes) < 10 || time.Since(start) < dur-untimed {
			tr.nextOp()
			t0 := time.Now()
			op := tr.begin("sweep")
			outs := sweep(tr)
			tr.end(op)
			ttimes = append(ttimes, ms(time.Since(t0)))
			r.failAll("traced sweep", checkSweep(suite, outs, refs))
		}
		rt1 := readRuntime()
		ops := float64(len(ttimes))
		ls := tr.layers()
		for _, m := range []string{"fi", "fi_defer", "fs", "iter", "returns"} {
			r.layer("icp."+m+".busy_ms", float64(get(ls, "icp."+m).SelfNs)/1e6/ops, "ms")
			r.layer("icp."+m+".alloc_mib", mib(get(ls, "icp."+m).AllocBytes)/ops, "MiB")
		}
		for _, k := range jumpKinds {
			r.layer("jumpfunc."+k.name+".busy_ms", float64(get(ls, "jumpfunc."+k.name).SelfNs)/1e6/ops, "ms")
		}
		r.layer("metrics.busy_ms", float64(get(ls, "metrics").SelfNs)/1e6/ops, "ms")
		r.layer("icp.fs_over_fi_defer", float64(get(ls, "icp.fs").TotalNs)/float64(get(ls, "icp.fi_defer").TotalNs), "ratio")
		r.layer("icp.iter_over_fs", float64(get(ls, "icp.iter").TotalNs)/float64(get(ls, "icp.fs").TotalNs), "ratio")
		gcLayers(r, rt0, rt1, ops)
		r.layer("trace.overhead_ratio", median(ttimes)/median(times), "ratio")
		r.spans = tr
	}
	return r, nil
}

// suiteRefs runs the reference interpreter on every suite program, and
// the repository's own soundness checker on every method's internal
// result against it. It returns the name-keyed reference traces the
// per-sweep checks use.
func suiteRefs(r *run, suite []suiteProgram) ([]*refTrace, error) {
	refs := make([]*refTrace, len(suite))
	for i, sp := range suite {
		ctx, err := compileSource(sp.name, sp.src)
		if err != nil {
			return nil, err
		}
		run := interp.Run(ctx.Prog, interp.Options{TraceGlobalsAtCalls: true, MaxSteps: 10_000_000})
		if run.Err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", sp.name, run.Err)
		}
		refs[i] = newRefTrace(run)
		for _, opts := range []icp.Options{
			{Method: icp.FlowInsensitive},
			{Method: icp.FlowSensitive},
			{Method: icp.FlowSensitiveIterative},
			{Method: icp.FlowSensitive, ReturnConstants: true, ReturnsRefresh: true},
		} {
			opts.PropagateFloats = sp.floats
			r.failAll(sp.name+" "+opts.Method.String(), soundness.CheckICP(icp.Analyze(ctx, opts), run.Trace))
		}
		for _, k := range []jumpfunc.Kind{jumpfunc.Literal, jumpfunc.Intra, jumpfunc.PassThrough, jumpfunc.Polynomial} {
			r.failAll(sp.name+" "+k.String(), soundness.CheckJump(jumpfunc.Analyze(ctx, k), run.Trace))
		}
	}
	return refs, nil
}

// checkSweep checks one sweep's outputs: the paper's table cells and
// Figure 1 sets, every method's constants against the interpreter, and
// the precision order FI ⊑ FS ⊑ FS-iterative fact by fact.
func checkSweep(suite []suiteProgram, outs []programOutput, refs []*refTrace) []string {
	bad := checkCells(sweepCells(suite, outs), paperCells)
	for i, o := range outs {
		name := suite[i].name
		for _, m := range []struct {
			method string
			cs     []constant
		}{{"FI", o.fi}, {"FS", o.fs}, {"FS-iterative", o.iter}, {"FS+returns", o.returns},
			{"LITERAL", o.jump[0]}, {"INTRA", o.jump[1]}, {"PASS-THROUGH", o.jump[2]}, {"POLYNOMIAL", o.jump[3]}} {
			for _, b := range checkSound(m.cs, refs[i]) {
				bad = append(bad, name+" "+m.method+": "+b)
			}
		}
		for _, b := range checkRefines(o.fi, o.fs) {
			bad = append(bad, name+" FI ⊑ FS: "+b)
		}
		for _, b := range checkRefines(o.fs, o.iter) {
			bad = append(bad, name+" FS ⊑ FS-iterative: "+b)
		}
	}
	return bad
}

// sweepCells derives the checked table cells from one sweep's outputs.
func sweepCells(suite []suiteProgram, outs []programOutput) map[string]string {
	n := make(map[string]int)
	cells := make(map[string]string)
	for i, o := range outs {
		switch suite[i].table {
		case "spec":
			n["table1.ARG"] += o.fsCalls.Args
			n["table1.IMM"] += o.fiCalls.Imm
			n["table1.FI"] += o.fiCalls.ConstArgs
			n["table1.FS"] += o.fsCalls.ConstArgs
			n["table2.FP"] += o.fiEntry.Formals
			n["table2.FI"] += o.fiEntry.ConstFormals
			n["table2.FS"] += o.fsEntry.ConstFormals
		case "first":
			n["table3.IMM"] += o.fiCalls.Imm
			n["table3.FI"] += o.fiCalls.ConstArgs
			n["table3.FS"] += o.fsCalls.ConstArgs
			n["table4.FP"] += o.fiEntry.Formals
			n["table4.FS"] += o.fsEntry.ConstFormals
		case "figure1":
			cells["figure1.FLOW-SENSITIVE"] = formalSet(o.fs)
			cells["figure1.FLOW-INSENSITIVE"] = formalSet(o.fi)
			for k, jk := range jumpKinds {
				cells["figure1."+jk.row] = formalSet(o.jump[k])
			}
		}
	}
	for k, v := range n {
		cells[k] = strconv.Itoa(v)
	}
	return cells
}

// formalSet renders the sorted names of the constants' variables.
func formalSet(cs []constant) string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Var
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
