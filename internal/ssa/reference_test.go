package ssa_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fsicp/internal/ast"
	"fsicp/internal/bench"
	"fsicp/internal/bitset"
	"fsicp/internal/dom"
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

// This file keeps the pointer-based SSA construction the compact
// overlay replaced, as a reference: one heap object per definition and
// per φ, and a use slice per definition. The compact overlay must
// reproduce its reaching definitions, φs, snapshots and use order
// exactly.

type refDef struct {
	kind  ssa.DefKind
	v     *sem.Var
	block *ir.Block // nil for entry defs
	instr ir.Instr  // DefInstr only
	uses  []refUse
}

type refPhi struct {
	def   *refDef
	v     *sem.Var
	block *ir.Block
	args  []*refDef // parallel to block.Preds
}

type refUse struct {
	kind  ssa.UseKind
	instr ir.Instr  // UseInstr
	phi   *refPhi   // UsePhi
	arg   int       // UsePhi
	block *ir.Block // the using instruction's or terminator's block; the φ's block
}

type refSSA struct {
	fn            *ir.Func
	dom           *dom.Tree
	entry         []*refDef
	defs          []*refDef
	phis          [][]*refPhi
	useDefs       [][]*refDef
	instrDefs     [][]*refDef
	globalsAtCall [][]*refDef
	termUses      [][]*refDef
	retSnapshots  [][]*refDef
}

func refBuild(fn *ir.Func) *refSSA {
	if !fn.Numbered() {
		fn.NumberInstrs()
	}
	n := fn.NumInstrs
	s := &refSSA{
		fn:            fn,
		dom:           dom.New(fn),
		phis:          make([][]*refPhi, len(fn.Blocks)),
		useDefs:       make([][]*refDef, n),
		instrDefs:     make([][]*refDef, n),
		globalsAtCall: make([][]*refDef, n),
		termUses:      make([][]*refDef, len(fn.Blocks)),
		retSnapshots:  make([][]*refDef, len(fn.Blocks)),
	}
	s.placePhis()
	s.rename()
	return s
}

func (s *refSSA) newDef(v *sem.Var, kind ssa.DefKind) *refDef {
	d := &refDef{kind: kind, v: v}
	s.defs = append(s.defs, d)
	return d
}

func (s *refSSA) placePhis() {
	fn := s.fn
	nvars := len(fn.AllVars)
	defBlocks := make([][]*ir.Block, nvars)
	for _, b := range s.dom.RPO {
		for _, in := range b.Instrs {
			for _, v := range in.Defs() {
				i := fn.VarOrd(v)
				defBlocks[i] = append(defBlocks[i], b)
			}
		}
	}
	hasPhi := bitset.NewAuto(len(fn.Blocks) * nvars)
	for vi := 0; vi < nvars; vi++ {
		work := append(append([]*ir.Block(nil), defBlocks[vi]...), s.dom.RPO[0])
		inWork := map[*ir.Block]bool{}
		for _, b := range work {
			inWork[b] = true
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range s.dom.Frontier(b) {
				if !hasPhi.Add(f.Index*nvars + vi) {
					continue
				}
				phi := &refPhi{v: fn.AllVars[vi], block: f, args: make([]*refDef, len(f.Preds))}
				phi.def = s.newDef(phi.v, ssa.DefPhi)
				phi.def.block = f
				s.phis[f.Index] = append(s.phis[f.Index], phi)
				if !inWork[f] {
					inWork[f] = true
					work = append(work, f)
				}
			}
		}
	}
}

func (s *refSSA) rename() {
	fn := s.fn
	stacks := make([][]*refDef, len(fn.AllVars))
	for i, v := range fn.AllVars {
		d := s.newDef(v, ssa.DefEntry)
		s.entry = append(s.entry, d)
		stacks[i] = append(stacks[i], d)
	}
	top := func(v *sem.Var) *refDef {
		st := stacks[fn.VarOrd(v)]
		return st[len(st)-1]
	}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		var pushed []int
		push := func(d *refDef) {
			vi := fn.VarOrd(d.v)
			stacks[vi] = append(stacks[vi], d)
			pushed = append(pushed, vi)
		}
		for _, phi := range s.phis[b.Index] {
			push(phi.def)
		}
		for _, in := range b.Instrs {
			id := in.InstrID()
			for _, v := range in.Uses() {
				d := top(v)
				s.useDefs[id] = append(s.useDefs[id], d)
				d.uses = append(d.uses, refUse{kind: ssa.UseInstr, instr: in, block: b})
			}
			if _, ok := in.(*ir.CallInstr); ok {
				for _, g := range fn.Globals() {
					s.globalsAtCall[id] = append(s.globalsAtCall[id], top(g))
				}
			}
			for _, v := range in.Defs() {
				d := s.newDef(v, ssa.DefInstr)
				d.instr, d.block = in, b
				s.instrDefs[id] = append(s.instrDefs[id], d)
				push(d)
			}
		}
		if b.Term != nil {
			for _, v := range b.Term.Uses() {
				d := top(v)
				s.termUses[b.Index] = append(s.termUses[b.Index], d)
				d.uses = append(d.uses, refUse{kind: ssa.UseTerm, block: b})
			}
			if _, isRet := b.Term.(*ir.Ret); isRet {
				for _, v := range fn.AllVars {
					s.retSnapshots[b.Index] = append(s.retSnapshots[b.Index], top(v))
				}
			}
		}
		for _, succ := range b.Succs {
			pi := 0
			for pi < len(succ.Preds) && succ.Preds[pi] != b {
				pi++
			}
			for _, phi := range s.phis[succ.Index] {
				d := top(phi.v)
				phi.args[pi] = d
				d.uses = append(d.uses, refUse{kind: ssa.UsePhi, phi: phi, arg: pi, block: succ})
			}
		}
		for _, c := range s.dom.Children(b) {
			walk(c)
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			vi := pushed[i]
			stacks[vi] = stacks[vi][:len(stacks[vi])-1]
		}
	}
	walk(s.dom.RPO[0])
}

// defKey names a definition independently of its representation: its
// variable plus its site — the defining instruction's ID, the φ's
// block, or the procedure entry.
type defKey struct {
	kind ssa.DefKind
	v    int
	site int
}

func (k defKey) String() string {
	return fmt.Sprintf("{kind %d var %d site %d}", k.kind, k.v, k.site)
}

var missing = defKey{kind: 255, v: -1, site: -1}

func compactKey(s *ssa.SSA, d ssa.Def) defKey {
	switch {
	case d == ssa.NoDef:
		return missing
	case s.Kind(d) == ssa.DefInstr:
		return defKey{ssa.DefInstr, s.VarOrd(d), s.InstrID(d)}
	case s.Kind(d) == ssa.DefPhi:
		return defKey{ssa.DefPhi, s.VarOrd(d), s.Block(d).Index}
	}
	return defKey{ssa.DefEntry, s.VarOrd(d), -1}
}

func refKey(fn *ir.Func, d *refDef) defKey {
	switch {
	case d == nil:
		return missing
	case d.kind == ssa.DefInstr:
		return defKey{ssa.DefInstr, fn.VarOrd(d.v), d.instr.InstrID()}
	case d.kind == ssa.DefPhi:
		return defKey{ssa.DefPhi, fn.VarOrd(d.v), d.block.Index}
	}
	return defKey{ssa.DefEntry, fn.VarOrd(d.v), -1}
}

// useKey names a use site: its kind and block, plus the using
// instruction's ID, or the φ's variable and argument.
type useKey struct {
	kind             ssa.UseKind
	block, site, arg int
}

// compareOverlays reports the first difference between the compact
// overlay and the reference, or "".
func compareOverlays(s *ssa.SSA, r *refSSA) string {
	fn := s.Fn
	same := func(what string, got []ssa.Def, want []*refDef) string {
		if len(got) != len(want) {
			return fmt.Sprintf("%s: %d definitions, reference has %d", what, len(got), len(want))
		}
		for k := range want {
			if g, w := compactKey(s, got[k]), refKey(fn, want[k]); g != w {
				return fmt.Sprintf("%s[%d] = %v, reference %v", what, k, g, w)
			}
		}
		return ""
	}
	if s.NumDefs() != len(r.defs) {
		return fmt.Sprintf("%d definitions, reference has %d", s.NumDefs(), len(r.defs))
	}
	for _, b := range r.dom.RPO {
		lo, hi := s.PhiDefs(b.Index)
		if int(hi-lo) != len(r.phis[b.Index]) {
			return fmt.Sprintf("%s: %d φs, reference has %d", b, hi-lo, len(r.phis[b.Index]))
		}
		for i, phi := range r.phis[b.Index] {
			d := lo + ssa.Def(i)
			if g, w := compactKey(s, d), refKey(fn, phi.def); g != w {
				return fmt.Sprintf("%s: φ %d is %v, reference %v", b, i, g, w)
			}
			if msg := same(fmt.Sprintf("%s: φ %s args", b, phi.v), s.PhiArgs(d), phi.args); msg != "" {
				return msg
			}
		}
		for _, in := range b.Instrs {
			id := in.InstrID()
			if msg := same(in.String()+" uses", s.UsesOf(in), r.useDefs[id]); msg != "" {
				return msg
			}
			if msg := same(in.String()+" defs", s.DefsOf(in), r.instrDefs[id]); msg != "" {
				return msg
			}
			if call, ok := in.(*ir.CallInstr); ok {
				for k, g := range fn.Globals() {
					if got, want := compactKey(s, s.GlobalAtCall(call, g)), refKey(fn, r.globalsAtCall[id][k]); got != want {
						return fmt.Sprintf("%s: %s at call = %v, reference %v", in, g, got, want)
					}
				}
			}
		}
		if msg := same(b.String()+" terminator", s.TermUses(b.Index), r.termUses[b.Index]); msg != "" {
			return msg
		}
		if msg := same(b.String()+" return snapshot", s.RetSnapshot(b.Index), r.retSnapshots[b.Index]); msg != "" {
			return msg
		}
	}

	// Use chains, in order: the SCC worklist visits them in this order,
	// so it fixes the fuel accounting.
	byKey := make(map[defKey]ssa.Def, s.NumDefs())
	for d := ssa.Def(0); int(d) < s.NumDefs(); d++ {
		byKey[compactKey(s, d)] = d
	}
	for _, rd := range r.defs {
		k := refKey(fn, rd)
		d, ok := byKey[k]
		if !ok {
			return fmt.Sprintf("reference definition %v missing", k)
		}
		var got []useKey
		for u := s.FirstUse(d); u >= 0; u = s.NextUse(u) {
			use := s.UseAt(u)
			uk := useKey{kind: use.Kind, block: int(use.Block)}
			switch use.Kind {
			case ssa.UseInstr:
				uk.site = int(use.Site)
			case ssa.UsePhi:
				uk.site, uk.arg = s.VarOrd(ssa.Def(use.Site)), int(use.Arg)
			}
			got = append(got, uk)
		}
		if len(got) != len(rd.uses) {
			return fmt.Sprintf("%v: %d uses, reference has %d", k, len(got), len(rd.uses))
		}
		for i, u := range rd.uses {
			uk := useKey{kind: u.kind, block: u.block.Index}
			switch u.kind {
			case ssa.UseInstr:
				uk.site = u.instr.InstrID()
			case ssa.UsePhi:
				uk.site, uk.arg = fn.VarOrd(u.phi.v), u.arg
			}
			if got[i] != uk {
				return fmt.Sprintf("%v: use %d is %+v, reference %+v", k, i, got[i], uk)
			}
		}
	}
	return ""
}

// TestCompactMatchesReference builds both overlays for every function
// of the paper suites, Figure 1, the sample programs and (without
// -short) the 2k-procedure corpus, after the interprocedural
// preparation that fills call MayDefs and inserts alias clobbers.
func TestCompactMatchesReference(t *testing.T) {
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
	phis := 0
	for _, in := range inputs {
		icp.Prepare(in.prog)
		for _, fn := range in.prog.Funcs {
			r := refBuild(fn)
			s := ssa.Build(fn)
			if msg := compareOverlays(s, r); msg != "" {
				t.Fatalf("%s, %s: %s\n%s", in.name, fn.Proc.Name, msg, s.Dump())
			}
			for _, p := range r.phis {
				phis += len(p)
			}
		}
	}
	if phis == 0 {
		t.Fatal("no input places a φ: the φ comparison went unchecked")
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
