package main

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fsicp/internal/alias"
	"fsicp/internal/ast"
	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/irbuild"
	"fsicp/internal/modref"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
)

// layeredLoad loads a corpus directory by calling each layer's public
// functions in the order fsicp.LoadDir's pass manager does, sharded
// over the same worker bound, with a span around every layer call.
// It returns the prepared interprocedural context and the number of
// source bytes parsed.
func layeredLoad(tr *tracer, dir string, workers int) (*icp.Context, int64, error) {
	m, err := progen.ReadManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	workers = driver.Workers(workers)
	fset := source.NewFileSet()
	files := make([]*source.File, len(m.Files))
	var srcBytes int64
	for i, name := range m.Files {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, err
		}
		files[i] = fset.AddSized(name, int(fi.Size()))
		srcBytes += fi.Size()
	}

	var astProg *ast.Program
	units := make([]*ast.Program, len(files))
	errs := make([]error, len(files))
	tr.timed("parse", func() {
		driver.Parallel(len(files), workers, func(i int) {
			b, err := os.ReadFile(filepath.Join(dir, m.Files[i]))
			if err == nil {
				err = files[i].SetContent(string(b))
			}
			if err == nil {
				units[i], err = parser.ParseUnit(files[i], fset)
				files[i].ReleaseContent()
			}
			errs[i] = err
		})
		astProg = ast.MergeUnits(units)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}

	var semProg *sem.Program
	tr.timed("sem", func() { semProg, err = sem.Check(astProg, fset) })
	if err != nil {
		return nil, 0, err
	}

	ctx := &icp.Context{}
	tr.timed("irbuild", func() {
		pb := irbuild.NewBuilder(semProg)
		driver.Parallel(pb.NumProcs(), workers, pb.BuildProc)
		ctx.Prog, err = pb.Finish()
	})
	if err != nil {
		return nil, 0, err
	}
	tr.timed("callgraph", func() { ctx.CG = callgraph.Build(ctx.Prog) })
	tr.timed("alias", func() {
		ctx.AL = alias.Fixpoint(ctx.Prog, ctx.CG)
		driver.Parallel(len(ctx.CG.Reachable), workers, ctx.AL.BuildPartners)
		ctx.AL.FinishPartners()
	})
	tr.timed("modref", func() {
		mb := modref.Begin(ctx.Prog, ctx.CG, ctx.AL)
		driver.Parallel(mb.NumProcs(), workers, mb.CollectProc)
		ctx.MR = mb.Finish()
	})
	tr.timed("clobbers", func() {
		n, shard := ctx.AL.ClobberShards(ctx.Prog, ctx.CG)
		driver.Parallel(n, workers, shard)
	})
	tr.timed("ssa", func() {
		n, shard := ctx.SSAPrebuildShards()
		driver.Parallel(n, workers, shard)
	})
	return ctx, srcBytes, nil
}

// compileSource builds one program's interprocedural context directly
// from the layers, for the reference interpreter and the repository's
// soundness checker, which work on internal results.
func compileSource(name, src string) (*icp.Context, error) {
	f := source.NewFile(name+".mf", src)
	astProg, err := parser.ParseFile(f)
	if err != nil {
		return nil, err
	}
	semProg, err := sem.Check(astProg, f)
	if err != nil {
		return nil, err
	}
	irProg, err := irbuild.Build(semProg)
	if err != nil {
		return nil, err
	}
	return icp.Prepare(irProg), nil
}

// tracedAnalyze runs one icp.Analyze call as a span named name, and
// adds the analysis's own per-pass records (FI prelude, FS wavefront,
// returns, ...) as child spans "name.<pass>" laid end to end from the
// call's start: the benchmark cannot wrap calls made inside the
// analysis, but the analysis reports each pass's wall time itself.
func tracedAnalyze(tr *tracer, name string, ctx *icp.Context, opts icp.Options) *icp.Result {
	if tr == nil {
		return icp.Analyze(ctx, opts)
	}
	passes := driver.NewTrace()
	opts.Trace = passes
	id := tr.begin(name)
	at := tr.now()
	res := icp.Analyze(ctx, opts)
	for _, st := range passes.Passes() {
		tr.child(name+"."+strings.ToLower(st.Name), at, st.Wall)
		at += st.Wall
	}
	tr.end(id)
	return res
}

// entryConstants lists a result's entry constants as the facade's
// Analysis.Constants does: formals, plus globals the procedure
// references, sorted by procedure then variable.
func entryConstants(ctx *icp.Context, res *icp.Result) []constant {
	var out []constant
	for _, p := range ctx.CG.Reachable {
		for _, f := range p.Params {
			if v, ok := res.EntryConstant(p, f); ok {
				out = append(out, constant{Proc: p.Name, Var: f.Name, Value: v.String()})
			}
		}
		for _, g := range ctx.Prog.Sem.Globals {
			if v, ok := res.EntryConstant(p, g); ok && ctx.MR.DRef[p].Has(g) {
				out = append(out, constant{Proc: p.Name, Var: g.Name, Value: v.String()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Var < out[j].Var
	})
	return out
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
