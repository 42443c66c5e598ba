package ssa_test

import (
	"strings"
	"testing"

	"fsicp/internal/ir"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/testutil"
	"fsicp/internal/val"
)

// rewriteSrc has a binary expression whose operands are a variable and
// a materialised literal temp, plus a copy — raw material for each
// rewrite primitive.
const rewriteSrc = `program p
proc main() {
  var a int
  var b int
  var c int
  read a
  b = a
  c = b + 3
  print c
}`

// findBinary returns the block, index, and instruction of the first
// BinaryInstr in f.
func findBinary(t *testing.T, f *ir.Func) (*ir.Block, int, *ir.BinaryInstr) {
	t.Helper()
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if bi, ok := in.(*ir.BinaryInstr); ok {
				return b, i, bi
			}
		}
	}
	t.Fatalf("no binary instruction:\n%s", f.Dump())
	return nil, 0, nil
}

func mustVerify(t *testing.T, s *ssa.SSA, when string) {
	t.Helper()
	if probs := s.Verify(); len(probs) != 0 {
		t.Fatalf("%s: overlay inconsistent:\n  %s\n%s", when, strings.Join(probs, "\n  "), s.Dump())
	}
}

func TestRewriteToConst(t *testing.T) {
	p := testutil.MustBuild(t, rewriteSrc)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	mustVerify(t, s, "before")

	b, idx, bi := findBinary(t, f)
	operands := s.UsesOf(bi)
	oldID := bi.InstrID()
	d := s.DefsOf(bi)[0]

	nc := &ir.ConstInstr{Dst: bi.Defs()[0], Val: val.Int(5)}
	s.RewriteToConst(b, idx, nc)
	mustVerify(t, s, "after RewriteToConst")

	if b.Instrs[idx] != nc {
		t.Fatal("instruction not replaced in block")
	}
	if nc.InstrID() != oldID {
		t.Errorf("InstrID not transferred: got %d want %d", nc.InstrID(), oldID)
	}
	if s.Instr(d) != nc || len(s.DefsOf(nc)) != 1 || s.DefsOf(nc)[0] != d {
		t.Error("definition not re-pointed at the new instruction")
	}
	// The old operand defs must no longer list the rewritten
	// instruction as a use.
	for _, od := range operands {
		if instrUse(s, od, oldID) {
			t.Errorf("stale use of %s survived the rewrite", s.DefString(od))
		}
	}
	if n := len(s.UsesOf(nc)); n != 0 {
		t.Errorf("const instruction has %d operand defs, want 0", n)
	}
}

func TestRewriteToCopy(t *testing.T) {
	p := testutil.MustBuild(t, rewriteSrc)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)

	b, idx, bi := findBinary(t, f)
	a := testutil.VarByName(t, f, "a")
	// Source definition: the read of a (its only non-entry def).
	src := defOf(s, f.Entry(), a)
	if src == ssa.NoDef {
		t.Fatalf("no def of a:\n%s", s.Dump())
	}

	nc := &ir.CopyInstr{Dst: bi.Defs()[0], Src: a}
	s.RewriteToCopy(b, idx, nc, src)
	mustVerify(t, s, "after RewriteToCopy")

	uds := s.UsesOf(nc)
	if len(uds) != 1 || uds[0] != src {
		t.Fatalf("copy operand defs = %v, want [def of a]", uds)
	}
	if !instrUse(s, src, nc.InstrID()) {
		t.Error("source def does not list the new copy as a use")
	}
}

func TestReplaceUseOperand(t *testing.T) {
	p := testutil.MustBuild(t, rewriteSrc)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)

	b, _, bi := findBinary(t, f)
	a := testutil.VarByName(t, f, "a")
	src := defOf(s, f.Entry(), a)
	old := s.UsesOf(bi)[0] // def of b (the copy b = a)

	// Simulate copy propagation: c = b + 3 becomes c = a + 3.
	s.ReplaceUseOperand(b, bi, 0, src)
	mustVerify(t, s, "after ReplaceUseOperand")

	if got := s.UsesOf(bi)[0]; got != src {
		t.Fatalf("operand 0 def = %v, want def of a", got)
	}
	if bi.X != a {
		t.Errorf("IR operand not rewritten: %v", bi.X)
	}
	if instrUse(s, old, bi.InstrID()) {
		t.Error("old operand def still lists the instruction as a use")
	}
}

func TestRenumberInstrs(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var i int
  var s int
  i = 0
  s = 0
  while (i < 4) {
    s = s + 2
    i = i + 1
  }
  print s
}`)
	f := testutil.FuncByName(t, p, "main")
	s := ssa.Build(f)
	mustVerify(t, s, "before")

	// Move the first loop-body instruction into the entry block (an
	// LICM-shaped motion), then renumber.
	var from *ir.Block
	for _, b := range f.Blocks {
		if b != f.Entry() && len(b.Instrs) > 0 {
			if _, ok := b.Instrs[0].(*ir.ConstInstr); ok {
				from = b
				break
			}
		}
	}
	if from == nil {
		t.Skipf("no const to move:\n%s", f.Dump())
	}
	moved := from.Instrs[0]
	from.Instrs = from.Instrs[1:]
	f.Entry().Instrs = append(f.Entry().Instrs, moved)

	s.RenumberInstrs()
	mustVerify(t, s, "after RenumberInstrs")

	// IDs must be dense and block-ordered again.
	want := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.InstrID() != want {
				t.Fatalf("instruction %v has id %d, want %d", in, in.InstrID(), want)
			}
			want++
		}
	}
	// Dense tables must still resolve the moved instruction.
	if d := s.DefsOf(moved); len(d) != 1 || s.Instr(d[0]) != moved || s.Block(d[0]) != f.Entry() {
		t.Error("moved instruction lost its definition mapping")
	}
}

// defOf returns the last definition of v an instruction of b creates,
// or NoDef.
func defOf(s *ssa.SSA, b *ir.Block, v *sem.Var) ssa.Def {
	src := ssa.NoDef
	for _, in := range b.Instrs {
		for _, d := range s.DefsOf(in) {
			if s.Var(d) == v {
				src = d
			}
		}
	}
	return src
}
