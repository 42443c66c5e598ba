package modref_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fsicp/internal/alias"
	"fsicp/internal/ast"
	"fsicp/internal/bench"
	"fsicp/internal/callgraph"
	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/modref"
	"fsicp/internal/parser"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/tables"
)

// mapSet is the reference set representation: any variable, keyed by
// pointer.
type mapSet map[*sem.Var]bool

// reference is the map-based MOD/REF solution the dense sets must
// reproduce.
type reference struct {
	mod, ref, dmod, dref map[*sem.Proc]mapSet
	mayDef               map[*ir.CallInstr][]*sem.Var
}

// referenceModRef computes MOD/REF the straightforward way: immediate
// sets from the IR, then every call edge and every alias closure
// re-applied until nothing changes, then each call's MayDef. It reads
// the IR without modifying it.
func referenceModRef(prog *ir.Program, cg *callgraph.Graph, al *alias.Info) *reference {
	r := &reference{
		mod:    make(map[*sem.Proc]mapSet),
		ref:    make(map[*sem.Proc]mapSet),
		dmod:   make(map[*sem.Proc]mapSet),
		dref:   make(map[*sem.Proc]mapSet),
		mayDef: make(map[*ir.CallInstr][]*sem.Var),
	}
	track := func(v *sem.Var) bool { return v.Kind == sem.KindFormal || v.IsGlobal() }
	for _, p := range cg.Reachable {
		dm, dr := make(mapSet), make(mapSet)
		for _, b := range prog.FuncOf[p].Blocks {
			for _, in := range b.Instrs {
				if call, ok := in.(*ir.CallInstr); ok {
					if call.Dst != nil && track(call.Dst) {
						dm[call.Dst] = true
					}
					continue
				}
				for _, v := range in.Defs() {
					if track(v) {
						dm[v] = true
					}
				}
				for _, v := range in.Uses() {
					if track(v) {
						dr[v] = true
					}
				}
			}
			if b.Term != nil {
				for _, v := range b.Term.Uses() {
					if track(v) {
						dr[v] = true
					}
				}
			}
		}
		r.dmod[p], r.dref[p] = dm, dr
		r.mod[p], r.ref[p] = copyMapSet(dm), copyMapSet(dr)
	}

	add := func(s mapSet, v *sem.Var) bool {
		if s[v] {
			return false
		}
		s[v] = true
		return true
	}
	propagate := func(sets map[*sem.Proc]mapSet, e callgraph.Edge) bool {
		changed := false
		for v := range sets[e.Callee] {
			if v.IsGlobal() {
				changed = add(sets[e.Caller], v) || changed
				continue
			}
			if v.Kind == sem.KindFormal && v.Owner == e.Callee && v.Index < len(e.Site.ByRef) {
				if a := e.Site.ByRef[v.Index]; a != nil && track(a) {
					changed = add(sets[e.Caller], a) || changed
				}
			}
		}
		return changed
	}
	closure := func(s mapSet, p *sem.Proc) bool {
		changed := false
		for grew := true; grew; {
			grew = false
			for v := range s {
				for _, w := range al.Partners(p, v) {
					if add(s, w) {
						grew, changed = true, true
					}
				}
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		for _, p := range cg.Reachable {
			changed = closure(r.mod[p], p) || changed
			changed = closure(r.ref[p], p) || changed
		}
		for _, e := range cg.Edges {
			changed = propagate(r.mod, e) || changed
			changed = propagate(r.ref, e) || changed
		}
	}

	for _, e := range cg.Edges {
		call, callee, caller := e.Site, e.Callee, e.Caller
		seen := make(mapSet)
		var out []*sem.Var
		addOut := func(v *sem.Var) {
			if v == nil || seen[v] || v == call.Dst {
				return
			}
			seen[v] = true
			out = append(out, v)
		}
		withPartners := func(v *sem.Var) {
			addOut(v)
			for _, w := range al.Partners(caller, v) {
				addOut(w)
			}
		}
		for i, a := range call.ByRef {
			if a != nil && i < len(callee.Params) && r.mod[callee][callee.Params[i]] {
				withPartners(a)
			}
		}
		for v := range r.mod[callee] {
			if v.IsGlobal() {
				withPartners(v)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
		r.mayDef[call] = out
	}
	return r
}

func copyMapSet(s mapSet) mapSet {
	out := make(mapSet, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

// TestDenseMatchesReference checks the dense MOD/REF against the
// map-based reference on the paper suites, Figure 1, the sample
// programs and the 2k-procedure corpus: MOD, REF, DMOD and DREF agree
// for every reachable procedure, and every reachable call's MayDef
// agrees element by element.
func TestDenseMatchesReference(t *testing.T) {
	type input struct {
		name string
		prog *ir.Program
	}
	var inputs []input
	for _, p := range append(bench.SPECfp92(), bench.FirstRelease()...) {
		inputs = append(inputs, input{p.Name, lower(t, p.Name, bench.Build(p))})
	}
	inputs = append(inputs, input{"figure1", lower(t, "figure1", tables.Figure1Source)})
	samples, _ := filepath.Glob("../../testdata/programs/*.mf")
	for _, path := range samples {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(path), lower(t, path, string(src))})
	}
	if !testing.Short() {
		inputs = append(inputs, input{"corpus2k", lowerCorpus(t, progen.ModuleConfig{
			Seed: 20260808, Modules: 16, ProcsPerModule: 128,
			Globals: 8, BlockData: 16, SCCSize: 4, FanOut: 6, MaxStmts: 4,
			AllowFloats: true,
		})})
	}

	aliased := 0
	for _, in := range inputs {
		cg := callgraph.Build(in.prog)
		al := alias.Compute(in.prog, cg)
		want := referenceModRef(in.prog, cg, al)
		got := modref.Compute(in.prog, cg, al)
		for _, p := range cg.Reachable {
			if al.HasAliases(p) {
				aliased++
			}
			sameSet(t, in.name, "MOD", p, got.Mod[p], want.mod[p])
			sameSet(t, in.name, "REF", p, got.Ref[p], want.ref[p])
			sameSet(t, in.name, "DMOD", p, got.DMod[p], want.dmod[p])
			sameSet(t, in.name, "DREF", p, got.DRef[p], want.dref[p])
		}
		for _, e := range cg.Edges {
			g, w := e.Site.MayDef, want.mayDef[e.Site]
			if len(g) != len(w) {
				t.Fatalf("%s: MayDef of %s→%s = %v, want %v", in.name, e.Caller.Name, e.Callee.Name, g, w)
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("%s: MayDef of %s→%s = %v, want %v", in.name, e.Caller.Name, e.Callee.Name, g, w)
				}
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no input has alias pairs: the alias closure went unchecked")
	}
}

func sameSet(t *testing.T, prog, kind string, p *sem.Proc, got *modref.Set, want mapSet) {
	t.Helper()
	n := 0
	got.Each(func(v *sem.Var) {
		n++
		if !want[v] {
			t.Fatalf("%s: %s(%s) has %s, the reference does not", prog, kind, p.Name, v)
		}
	})
	if n != len(want) || got.Len() != len(want) {
		t.Fatalf("%s: %s(%s) = %v, reference has %d members", prog, kind, p.Name, got.Sorted(), len(want))
	}
}

// lower compiles one source file to IR, without the interprocedural
// passes.
func lower(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	f := source.NewFile(name, src)
	astProg, err := parser.ParseFile(f)
	if err != nil {
		t.Fatal(err)
	}
	semProg, err := sem.Check(astProg, f)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irbuild.Build(semProg)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// lowerCorpus compiles a generated multi-module corpus to IR.
func lowerCorpus(t *testing.T, cfg progen.ModuleConfig) *ir.Program {
	t.Helper()
	files, _ := progen.GenerateModules(cfg)
	fset := source.NewFileSet()
	units := make([]*ast.Program, len(files))
	for i, f := range files {
		u, err := parser.ParseUnit(fset.Add(f.Name, f.Src), fset)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = u
	}
	semProg, err := sem.Check(ast.MergeUnits(units), fset)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := irbuild.Build(semProg)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
