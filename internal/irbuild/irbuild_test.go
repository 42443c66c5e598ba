package irbuild_test

import (
	"strings"
	"testing"

	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/parser"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/testutil"
)

func TestStraightLine(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int = 1
  var y int
  y = x + 2
  print y
}`)
	f := testutil.FuncByName(t, p, "main")
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks: %d\n%s", len(f.Blocks), f.Dump())
	}
	b := f.Entry()
	if _, ok := b.Term.(*ir.Ret); !ok {
		t.Errorf("terminator: %v", b.Term)
	}
	dump := f.Dump()
	for _, want := range []string{"const 1", "const 2", "print"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestIfElseCFG(t *testing.T) {
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
	entry := f.Entry()
	iff, ok := entry.Term.(*ir.If)
	if !ok {
		t.Fatalf("entry term: %v\n%s", entry.Term, f.Dump())
	}
	if iff.Then == iff.Else {
		t.Fatal("then == else")
	}
	// Both branches jump to the same join block.
	j1 := iff.Then.Term.(*ir.Jump).Target
	j2 := iff.Else.Term.(*ir.Jump).Target
	if j1 != j2 {
		t.Errorf("branches do not rejoin:\n%s", f.Dump())
	}
	if len(j1.Preds) != 2 {
		t.Errorf("join preds: %d", len(j1.Preds))
	}
}

func TestWhileCFG(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int = 10
  while x > 0 {
    x = x - 1
  }
  print x
}`)
	f := testutil.FuncByName(t, p, "main")
	// entry -> header; header -(If)-> body, exit; body -> header.
	header := f.Entry().Term.(*ir.Jump).Target
	iff := header.Term.(*ir.If)
	body, exit := iff.Then, iff.Else
	if back := body.Term.(*ir.Jump).Target; back != header {
		t.Errorf("body does not loop to header:\n%s", f.Dump())
	}
	if len(header.Preds) != 2 {
		t.Errorf("header preds: %d", len(header.Preds))
	}
	if _, ok := exit.Term.(*ir.Ret); !ok {
		// exit holds the print then a Ret — print is an instr
		if !strings.Contains(exit.String(), "b") {
			t.Errorf("bad exit")
		}
	}
}

func TestForLoopLowering(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var i int
  var s int = 0
  for i = 1, 10, 2 {
    s = s + i
  }
  for i = 10, 1, -1 {
    s = s - i
  }
  print s
}`)
	f := testutil.FuncByName(t, p, "main")
	dump := f.Dump()
	if !strings.Contains(dump, "<=") {
		t.Errorf("ascending loop must compare <=:\n%s", dump)
	}
	if !strings.Contains(dump, ">=") {
		t.Errorf("descending loop must compare >=:\n%s", dump)
	}
	if !strings.Contains(dump, "const -1") {
		t.Errorf("step constant missing:\n%s", dump)
	}
}

func TestForBadStep(t *testing.T) {
	f := source.NewFile("t.mf", `program p
proc main() {
  var i int
  var n int = 3
  for i = 1, 10, n {
  }
}`)
	prog, err := parser.ParseFile(f)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sem.Check(prog, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := irbuild.Build(sp); err == nil {
		t.Fatal("expected error for non-literal step")
	}
}

func TestBreakContinue(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var i int
  for i = 1, 10 {
    if i == 3 {
      continue
    }
    if i == 7 {
      break
    }
    print i
  }
}`)
	f := testutil.FuncByName(t, p, "main")
	// No unterminated blocks, and the function still ends in Ret.
	for _, b := range f.Blocks {
		if b.Term == nil {
			t.Errorf("unterminated block %s:\n%s", b, f.Dump())
		}
	}
}

func TestCallByRefVsTemp(t *testing.T) {
	p := testutil.MustBuild(t, `program p
global g int = 1
proc main() {
  use g
  var x int = 2
  call f(x, x + 1, g, 4)
}
proc f(a int, b int, c int, d int) {
  a = a + b + c + d
}`)
	f := testutil.FuncByName(t, p, "main")
	if len(f.Calls) != 1 {
		t.Fatalf("calls: %d", len(f.Calls))
	}
	c := f.Calls[0]
	if c.ByRef[0] == nil || c.ByRef[0].Name != "x" {
		t.Errorf("arg 0 should be by-ref x: %v", c.ByRef[0])
	}
	if c.ByRef[1] != nil {
		t.Errorf("arg 1 (expression) should be by-value")
	}
	if c.ByRef[2] == nil || !c.ByRef[2].IsGlobal() {
		t.Errorf("arg 2 should be by-ref global g")
	}
	if c.ByRef[3] != nil {
		t.Errorf("arg 3 (literal) should be by-value")
	}
	if len(c.ArgSyntax) != 4 {
		t.Errorf("arg syntax: %d", len(c.ArgSyntax))
	}
}

func TestFunctionCallInExpr(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int
  x = add(1, 2) * 3
  print x
}
func add(a int, b int) int {
  return a + b
}`)
	f := testutil.FuncByName(t, p, "main")
	if len(f.Calls) != 1 {
		t.Fatalf("calls: %d\n%s", len(f.Calls), f.Dump())
	}
	if f.Calls[0].Dst == nil {
		t.Error("function call must have a result destination")
	}
}

func TestFuncFallOffEndReturnsZero(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  var x int
  x = f(1)
}
func f(a int) int {
  if a > 0 {
    return a
  }
}`)
	f := testutil.FuncByName(t, p, "f")
	dump := f.Dump()
	if !strings.Contains(dump, "const 0") {
		t.Errorf("fall-off-end should return zero:\n%s", dump)
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  return
  print 1
}`)
	f := testutil.FuncByName(t, p, "main")
	reach := f.ReachableBlocks()
	if len(reach) != 1 {
		t.Errorf("reachable blocks: %d\n%s", len(reach), f.Dump())
	}
	if len(reach) > 0 && reach[0] != f.Entry() {
		t.Error("entry must be first in RPO")
	}
}

func TestCallSiteIDsGlobal(t *testing.T) {
	p := testutil.MustBuild(t, `program p
proc main() {
  call a()
  call b()
}
proc a() { call b() }
proc b() {}`)
	if len(p.CallSites) != 3 {
		t.Fatalf("call sites: %d", len(p.CallSites))
	}
	for i, cs := range p.CallSites {
		if cs.ID != i {
			t.Errorf("call %d has ID %d", i, cs.ID)
		}
	}
}
