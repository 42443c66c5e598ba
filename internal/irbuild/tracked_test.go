package irbuild_test

import (
	"testing"

	"fsicp/internal/ast"
	"fsicp/internal/bench"
	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/ssa"
	"fsicp/internal/tables"
)

// compileCorpus loads a generated multi-module corpus the way
// fsicp.LoadFiles does and prepares it for analysis.
func compileCorpus(t *testing.T, cfg progen.ModuleConfig) *icp.Context {
	t.Helper()
	files, _ := progen.GenerateModules(cfg)
	fset := source.NewFileSet()
	units := make([]*ast.Program, len(files))
	for i, f := range files {
		u, err := parser.ParseUnit(fset.Add(f.Name, f.Src), fset)
		if err != nil {
			t.Fatalf("%s does not parse: %v", f.Name, err)
		}
		units[i] = u
	}
	sp, err := sem.Check(ast.MergeUnits(units), fset)
	if err != nil {
		t.Fatalf("corpus does not check: %v", err)
	}
	prog, err := irbuild.Build(sp)
	if err != nil {
		t.Fatalf("corpus does not lower: %v", err)
	}
	return icp.Prepare(prog)
}

// corpus2k is the 2049-procedure corpus of the large-corpus suite.
var corpus2k = progen.ModuleConfig{
	Seed: 20260808, Modules: 16, ProcsPerModule: 128,
	Globals: 8, BlockData: 16, SCCSize: 4, FanOut: 6, MaxStmts: 4,
	AllowFloats: true,
}

// TestTrackedVarsAreProcedureRelative checks the tracked-variable
// contract on the SPEC suite and the 2k corpus: after Prepare, every
// reachable procedure tracks exactly the globals in its MOD∪REF and its
// calls' MayDef, and every variable its instructions, terminators and
// MayDef lists name has a position in AllVars. (The IR builder also
// tracks every global the body names; the only such global outside
// MOD∪REF would be one passed by reference to a callee that ignores
// the formal, which these programs do not contain.)
func TestTrackedVarsAreProcedureRelative(t *testing.T) {
	var ctxs []*icp.Context
	for _, p := range bench.SPECfp92() {
		ctx, err := tables.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, ctx)
	}
	if !testing.Short() {
		ctxs = append(ctxs, compileCorpus(t, corpus2k))
	}
	for _, ctx := range ctxs {
		for _, p := range ctx.CG.Reachable {
			checkTracked(t, ctx, ctx.Prog.FuncOf[p])
		}
	}
}

func checkTracked(t *testing.T, ctx *icp.Context, f *ir.Func) {
	t.Helper()
	p := f.Proc
	for i, v := range f.AllVars {
		if got := f.VarOrd(v); got != i {
			t.Fatalf("%s: VarOrd(%s) = %d, want %d", p.Name, v, got, i)
		}
	}
	named := func(vs []*sem.Var) {
		for _, v := range vs {
			if f.VarOrd(v) < 0 {
				t.Fatalf("%s names untracked %s", p.Name, v)
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			named(in.Defs()) // includes a call's MayDef
			named(in.Uses())
		}
		named(b.Term.Uses())
	}
	want := make(map[*sem.Var]bool)
	addGlobals := func(vs []*sem.Var) {
		for _, v := range vs {
			if v.IsGlobal() {
				want[v] = true
			}
		}
	}
	addGlobals(ctx.MR.Mod[p].Sorted())
	addGlobals(ctx.MR.Ref[p].Sorted())
	for _, call := range f.Calls {
		addGlobals(call.MayDef)
	}
	gs := f.Globals()
	for k, g := range gs {
		if !want[g] {
			t.Errorf("%s tracks %s outside MOD∪REF∪MayDef", p.Name, g)
		}
		if k > 0 && gs[k-1].Index >= g.Index {
			t.Errorf("%s: tracked globals not sorted by index at %d", p.Name, k)
		}
		if f.GlobalPos(g) != k {
			t.Errorf("%s: GlobalPos(%s) = %d, want %d", p.Name, g, f.GlobalPos(g), k)
		}
	}
	if len(gs) != len(want) {
		t.Errorf("%s tracks %d globals, want %d", p.Name, len(gs), len(want))
	}
}

// TestFootprintScalesWithProcedure guards against the per-procedure
// IR/SSA footprint growing with the program: quadrupling the number of
// modules (and so of globals) at a fixed module size must leave the
// mean tracked-variable and SSA-definition counts per procedure within
// 10%. With every global tracked everywhere, both grew by one per
// added global.
func TestFootprintScalesWithProcedure(t *testing.T) {
	mean := func(modules int) (vars, defs float64) {
		cfg := progen.ModuleConfig{
			Seed: 7, Modules: modules, ProcsPerModule: 48,
			Globals: 8, BlockData: 12, SCCSize: 3, FanOut: 6, MaxStmts: 4,
		}
		ctx := compileCorpus(t, cfg)
		for _, p := range ctx.CG.Reachable {
			f := ctx.Prog.FuncOf[p]
			vars += float64(len(f.AllVars))
			defs += float64(ssa.Build(f).NumDefs())
		}
		n := float64(len(ctx.CG.Reachable))
		return vars / n, defs / n
	}
	v4, d4 := mean(4)
	v16, d16 := mean(16)
	t.Logf("mean per procedure: vars %.1f → %.1f, defs %.1f → %.1f", v4, v16, d4, d16)
	within := func(a, b float64) bool { return b <= a*1.1 && a <= b*1.1 }
	if !within(v4, v16) {
		t.Errorf("mean tracked variables per procedure %.1f at 4 modules vs %.1f at 16", v4, v16)
	}
	if !within(d4, d16) {
		t.Errorf("mean SSA definitions per procedure %.1f at 4 modules vs %.1f at 16", d4, d16)
	}
}
