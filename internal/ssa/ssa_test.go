package ssa_test

import (
	"testing"

	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/testutil"
)

func TestPhiPlacementDiamond(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int
  read x
  if x > 0 {
    x = 1
  } else {
    x = 2
  }
  print x
}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	iff := f.Entry().Term.(*ir.If)
	join := iff.Then.Term.(*ir.Jump).Target
	x := testutil.VarByName(t, f, "x")

	xphi := phiOf(s, join, x)
	if xphi == ssa.NoDef {
		t.Fatalf("no phi for x at join:\n%s", s.Dump())
	}
	args := s.PhiArgs(xphi)
	if len(args) != 2 {
		t.Fatalf("phi args: %d", len(args))
	}
	for i, a := range args {
		if a == ssa.NoDef {
			t.Errorf("phi arg %d missing", i)
		} else if s.Kind(a) != ssa.DefInstr {
			t.Errorf("phi arg %d kind %v", i, s.Kind(a))
		}
	}
	// The print uses the phi def.
	var print *ir.PrintInstr
	for _, in := range join.Instrs {
		if pr, ok := in.(*ir.PrintInstr); ok {
			print = pr
		}
	}
	if print == nil {
		t.Fatalf("no print in join block")
	}
	ud := s.UsesOf(print)
	if len(ud) != 1 || ud[0] != xphi {
		t.Errorf("print does not use the phi: %v", ud)
	}
}

func TestEntryDefsForAllVars(t *testing.T) {
	p := testutil.MustBuild(t, `program p
global g int = 1
proc f(a int, b real) {
  var x bool
  print a
}
proc main() { call f(1, 2.0) }`)
	f := testutil.FuncByName(t, p, "f")
	s := ssa.Build(f)
	for _, v := range f.AllVars {
		d := s.EntryDef(v)
		if d == ssa.NoDef || s.Kind(d) != ssa.DefEntry || s.Var(d) != v {
			t.Errorf("bad entry def for %s: %v", v, d)
		}
	}
	// The print of 'a' with no prior assignment uses the entry def.
	a := testutil.VarByName(t, f, "a")
	var print *ir.PrintInstr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if pr, ok := in.(*ir.PrintInstr); ok {
				print = pr
			}
		}
	}
	if got := s.UsesOf(print)[0]; got != s.EntryDef(a) {
		t.Errorf("print uses %v, want entry def of a", got)
	}
}

func TestLoopPhi(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int = 10
  while x > 0 {
    x = x - 1
  }
  print x
}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	header := f.Entry().Term.(*ir.Jump).Target
	x := testutil.VarByName(t, f, "x")
	xphi := phiOf(s, header, x)
	if xphi == ssa.NoDef {
		t.Fatalf("no loop phi for x:\n%s", s.Dump())
	}
	// One arg is the initial const def, the other the decrement.
	kinds := map[ssa.DefKind]int{}
	for _, a := range s.PhiArgs(xphi) {
		kinds[s.Kind(a)]++
	}
	if kinds[ssa.DefInstr] != 2 {
		t.Errorf("phi args kinds: %v\n%s", kinds, s.Dump())
	}
	// The loop condition uses the phi.
	condUse := s.UsesOf(header.Instrs[len(header.Instrs)-1])
	if condUse[0] != xphi {
		t.Errorf("condition does not use loop phi")
	}
}

func TestCallMayDefCreatesDefs(t *testing.T) {
	p := testutil.MustBuild(t, `program p
global g int = 1
proc main() {
  use g
  var x int = 2
  call f(x)
  print x, g
}
proc f(a int) {
  use g
  a = 5
  g = 6
}`)
	f := testutil.FuncByName(t, p, "main")
	call := f.Calls[0]
	x := testutil.VarByName(t, f, "x")
	g := testutil.VarByName(t, f, "g")
	// Simulate the modref phase filling MayDef.
	call.MayDef = []*sem.Var{x, g}
	s := ssa.Build(f)
	ids := s.DefsOf(call)
	if len(ids) != 2 {
		t.Fatalf("call defs: %d", len(ids))
	}
	// print x, g must use the call's defs, not the original ones.
	var print *ir.PrintInstr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if pr, ok := in.(*ir.PrintInstr); ok {
				print = pr
			}
		}
	}
	ud := s.UsesOf(print)
	for i, d := range ud {
		if s.Kind(d) != ssa.DefInstr || s.Instr(d) != call {
			t.Errorf("print use %d: %v, want def from call", i, d)
		}
	}
}

func TestGlobalsAtCallSnapshot(t *testing.T) {
	// main names only g, but tracks h too once modref adds REF(f) —
	// the globals a call-site snapshot must cover.
	p := testutil.MustBuild(t, `program p
global g int = 1
global h int = 2
proc main() {
  use g
  g = 42
  call f()
}
proc f() {
  use h
  print h
}`)
	icp.Prepare(p)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	call := f.Calls[0]
	g := testutil.VarByName(t, f, "g")
	h := testutil.VarByName(t, f, "h")
	gd := s.GlobalAtCall(call, g)
	if s.Kind(gd) != ssa.DefInstr {
		t.Errorf("g at call should be the assignment def, got %v", s.Kind(gd))
	}
	hd := s.GlobalAtCall(call, h)
	if s.Kind(hd) != ssa.DefEntry {
		t.Errorf("h at call should be entry def, got %v", s.Kind(hd))
	}
}

func TestUsesBackEdges(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int = 1
  var y int
  y = x + x
  print y
}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	x := testutil.VarByName(t, f, "x")
	// x's const def has two uses from the binary instruction.
	constDef := ssa.NoDef
	for d := ssa.Def(0); int(d) < s.NumDefs(); d++ {
		if s.Var(d) == x && s.Kind(d) == ssa.DefInstr {
			constDef = d
		}
	}
	if constDef == ssa.NoDef {
		t.Fatal("no instr def for x")
	}
	if n := len(usesOf(s, constDef)); n != 2 {
		t.Errorf("x def uses: %d, want 2", n)
	}
}

// phiOf returns the φ for v at the head of b, or NoDef.
func phiOf(s *ssa.SSA, b *ir.Block, v *sem.Var) ssa.Def {
	lo, hi := s.PhiDefs(b.Index)
	for d := lo; d < hi; d++ {
		if s.Var(d) == v {
			return d
		}
	}
	return ssa.NoDef
}

// usesOf collects d's use records in chain order.
func usesOf(s *ssa.SSA, d ssa.Def) []ssa.Use {
	var out []ssa.Use
	for u := s.FirstUse(d); u >= 0; u = s.NextUse(u) {
		out = append(out, s.UseAt(u))
	}
	return out
}

// instrUse reports whether d's chain holds a use by instruction id.
func instrUse(s *ssa.SSA, d ssa.Def, id int) bool {
	for _, u := range usesOf(s, d) {
		if u.Kind == ssa.UseInstr && int(u.Site) == id {
			return true
		}
	}
	return false
}
