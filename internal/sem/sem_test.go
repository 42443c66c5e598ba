package sem_test

import (
	"strings"
	"testing"

	"fsicp/internal/ast"
	"fsicp/internal/clone"
	"fsicp/internal/icp"
	"fsicp/internal/inline"
	"fsicp/internal/ir"
	"fsicp/internal/parser"
	"fsicp/internal/sem"
	"fsicp/internal/source"
	"fsicp/internal/testutil"
	"fsicp/internal/transform"
)

func check(t *testing.T, src string) (*sem.Program, error) {
	t.Helper()
	f := source.NewFile("t.mf", src)
	prog, err := parser.ParseFile(f)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	return sem.Check(prog, f)
}

func mustCheck(t *testing.T, src string) *sem.Program {
	t.Helper()
	p, err := check(t, src)
	if err != nil {
		t.Fatalf("check failed: %v", err)
	}
	return p
}

func TestCheckOK(t *testing.T) {
	p := mustCheck(t, `program demo
global g int = 7
global r real = -1.5
global b bool = false
proc main() {
  use g
  var x int = g + 1
  call sub(x, 2)
}
proc sub(a int, c int) {
  use r
  var y real
  y = r * 2.0
  print y, a + c
}
func inc(n int) int {
  return n + 1
}`)
	if p.Main == nil || p.Main.Name != "main" {
		t.Fatalf("main not found")
	}
	if len(p.Globals) != 3 {
		t.Errorf("globals: %d", len(p.Globals))
	}
	if got := p.GlobalInit[p.Globals[0]]; got.I != 7 {
		t.Errorf("g init: %v", got)
	}
	if got := p.GlobalInit[p.Globals[1]]; got.R != -1.5 {
		t.Errorf("r init: %v", got)
	}
	sub := p.ProcByName["sub"]
	if sub.NumFormals() != 2 || sub.Params[0].Name != "a" || sub.Params[0].Kind != sem.KindFormal {
		t.Errorf("sub params wrong: %+v", sub.Params)
	}
	if len(sub.Uses) != 1 || sub.Uses[0].Name != "r" {
		t.Errorf("sub uses wrong: %+v", sub.Uses)
	}
	inc := p.ProcByName["inc"]
	if !inc.IsFunc || inc.Result != ast.TypeInt {
		t.Errorf("inc: %+v", inc)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no main", "program p\nproc other() {}", "no procedure named 'main'"},
		{"main params", "program p\nproc main(a int) {}", "must not declare parameters"},
		{"main func", "program p\nfunc main() int { return 1 }", "must be a proc"},
		{"dup global", "program p\nglobal g int\nglobal g real\nproc main() {}", "redeclared"},
		{"dup proc", "program p\nproc main() {}\nproc f() {}\nproc f() {}", "redeclared"},
		{"dup param", "program p\nproc main() {}\nproc f(a int, a int) {}", "redeclared"},
		{"dup local", "program p\nproc main() { var x int\n var x int }", "redeclared"},
		{"undeclared var", "program p\nproc main() { x = 1 }", "undeclared variable"},
		{"invisible global", "program p\nglobal g int\nproc main() { g = 1 }", "use clause"},
		{"unknown use", "program p\nproc main() { use h }", "undeclared global"},
		{"use dup", "program p\nglobal g int\nproc main() { use g, g }", "twice"},
		{"type mismatch assign", "program p\nproc main() { var x int\n x = 1.5 }", "cannot assign"},
		{"type mismatch init", "program p\nglobal g int = 1.5\nproc main() {}", "does not match"},
		{"cond not bool", "program p\nproc main() { if 1 { } }", "must be bool"},
		{"arith on bool", "program p\nproc main() { var b bool\n b = true + false }", "invalid operand type"},
		{"mismatched operands", "program p\nproc main() { var x int\n x = 1 + 2.0 }", "mismatched operand"},
		{"mod on real", "program p\nproc main() { var r real\n r = 1.0 % 2.0 }", "invalid operand type"},
		{"unknown callee", "program p\nproc main() { call nope() }", "undeclared procedure"},
		{"arity", "program p\nproc main() { call f(1) }\nproc f(a int, b int) {}", "want 2"},
		{"arg type", "program p\nproc main() { call f(1.5) }\nproc f(a int) {}", "want int"},
		{"proc in expr", "program p\nproc main() { var x int\n x = f() }\nproc f() {}", "cannot appear in an expression"},
		{"return in proc", "program p\nproc main() { return 1 }", "cannot return a value"},
		{"bare return in func", "program p\nproc main() {}\nfunc f() int { return }", "must return a value"},
		{"return type", "program p\nproc main() {}\nfunc f() int { return 1.5 }", "cannot return"},
		{"break outside", "program p\nproc main() { break }", "break outside loop"},
		{"continue outside", "program p\nproc main() { continue }", "continue outside loop"},
		{"for var type", "program p\nproc main() { var r real\n for r = 1, 2 { } }", "must be int"},
		{"for bound type", "program p\nproc main() { var i int\n for i = 1, 2.5 { } }", "must be int"},
		{"local shadows global in use", "program p\nglobal g int\nproc main() { use g\n var g int }", "redeclared"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := check(t, c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q\n does not contain %q", err.Error(), c.want)
			}
		})
	}
}

// resolutionSrc has a use clause, locals, formals, a global, a func
// call in an expression, typed operators, a dead procedure declared
// before the live ones, a non-recursive f (inlined into main) and a
// recursive kernel whose call sites survive inlining and get cloned.
const resolutionSrc = `program p
global g int = 1
proc main() {
  use g
  var x int = -g + 1
  x = twice(x)
  print x < 3
  call kernel(64, x)
  call kernel(64, 2)
  call f(x)
}
proc dead() {}
proc f(a int) {
  var y int = (a * 2)
  call kernel(a, y)
}
proc kernel(size int, mode int) {
  var area int
  area = size * size
  if mode > 5 {
    call kernel(size, mode - 1)
  }
  print mode, area
}
func twice(n int) int { return n * 2 }`

// firstCall returns the first call statement of a procedure's body.
func firstCall(t *testing.T, p *sem.Proc) *ast.CallExpr {
	t.Helper()
	for _, s := range p.Decl.Body.Stmts {
		if cs, ok := s.(*ast.CallStmt); ok {
			return cs.Call
		}
	}
	t.Fatalf("%s has no call statement", p.Name)
	return nil
}

// TestResolution covers the syntax-resident resolution results read
// through Program.Ref, Callee and TypeOf.
func TestResolution(t *testing.T) {
	p := mustCheck(t, resolutionSrc)
	main, f, kernel, twice := p.ProcByName["main"], p.ProcByName["f"], p.ProcByName["kernel"], p.ProcByName["twice"]
	g := p.Globals[0]

	if v := p.Ref(main.Decl.Uses[0]); v != g {
		t.Errorf("use clause resolves to %v, want global g", v)
	}
	decl := main.Decl.Body.Stmts[0].(*ast.VarDecl)
	x := main.Local(decl)
	if x == nil || x.Name != "x" || x.Owner != main || x.Kind != sem.KindLocal {
		t.Fatalf("Local(var x) = %+v", x)
	}
	init := decl.Init.(*ast.BinaryExpr)
	neg := init.X.(*ast.UnaryExpr)
	if v := p.Ref(neg.X.(*ast.Ident)); v != g {
		t.Errorf("g in initialiser resolves to %v", v)
	}
	assign := main.Decl.Body.Stmts[1].(*ast.AssignStmt)
	if v := p.Ref(assign.Name); v != x {
		t.Errorf("assignment target resolves to %v, want main.x", v)
	}
	call := assign.Value.(*ast.CallExpr)
	if c := p.Callee(call); c != twice {
		t.Errorf("Callee(twice(x)) = %v", c)
	}
	if v := p.Ref(call.Fun); v != nil {
		t.Errorf("procedure name resolves to variable %v", v)
	}
	if v := p.Ref(nil); v != nil {
		t.Errorf("Ref(nil) = %v", v)
	}
	fcall := firstCall(t, f)
	if c := p.Callee(fcall); c != kernel {
		t.Errorf("Callee in f = %v, want kernel", c)
	}
	if v := p.Ref(fcall.Args[0].(*ast.Ident)); v != f.Params[0] {
		t.Errorf("f's argument a resolves to %v, want f.a", v)
	}
	if v := p.Ref(fcall.Args[1].(*ast.Ident)); v == nil || v.Name != "y" || v.Owner != f {
		t.Errorf("f's argument y resolves to %v, want f.y", v)
	}

	print := main.Decl.Body.Stmts[2].(*ast.PrintStmt)
	ydecl := f.Decl.Body.Stmts[0].(*ast.VarDecl)
	for _, c := range []struct {
		e    ast.Expr
		want ast.Type
	}{
		{init, ast.TypeInt},
		{neg, ast.TypeInt},
		{neg.X, ast.TypeInt},
		{init.Y, ast.TypeInt},
		{call, ast.TypeInt},
		{print.Args[0], ast.TypeBool},
		{ydecl.Init, ast.TypeInt},
		{&ast.RealLit{}, ast.TypeReal},
		{&ast.BoolLit{}, ast.TypeBool},
		{&ast.StringLit{}, ast.TypeInvalid},
		{firstCall(t, main), ast.TypeInvalid}, // a proc has no result
		{&ast.Ident{Name: "unresolved"}, ast.TypeInvalid},
	} {
		if got := p.TypeOf(c.e); got != c.want {
			t.Errorf("TypeOf(%s) = %s, want %s", ast.FormatExpr(c.e), got, c.want)
		}
	}
}

// TestSlotLayout pins the invariant Ref relies on instead of a slot
// table: formals take the first slots in order, and every local or
// temporary the next one, in Locals order — also after lowering adds
// temporaries and inlining adds locals.
func TestSlotLayout(t *testing.T) {
	prog := testutil.MustBuild(t, resolutionSrc)
	inline.Program(prog, inline.Options{})
	for _, p := range prog.Sem.Procs {
		for s, v := range p.Params {
			if v.Slot != s {
				t.Errorf("%s: formal %s in slot %d, want %d", p.Name, v.Name, v.Slot, s)
			}
		}
		for i, v := range p.Locals {
			if want := len(p.Params) + i; v.Slot != want {
				t.Errorf("%s: local %s in slot %d, want %d", p.Name, v.Name, v.Slot, want)
			}
		}
		if want := len(p.Params) + len(p.Locals); p.NumSlots() != want {
			t.Errorf("%s: NumSlots = %d, want %d", p.Name, p.NumSlots(), want)
		}
	}
}

// TestResolutionOwnerStable asserts a call's argument syntax resolves
// to its original owner's variable wherever the call ends up: inlined
// into another procedure, copied into a clone, or after dead-procedure
// removal renumbers the procedures. Consumers reject such a variable
// by its Owner, as they did when resolution was a node-keyed map.
func TestResolutionOwnerStable(t *testing.T) {
	argOwners := func(prog *ir.Program, fn *ir.Func) (owners []string) {
		for _, ci := range fn.Calls {
			for _, a := range ci.ArgSyntax {
				if v := prog.Sem.Ref(asIdent(a)); v != nil && !v.IsGlobal() {
					owners = append(owners, v.Owner.Name+"."+v.Name)
				}
			}
		}
		return owners
	}

	t.Run("inline", func(t *testing.T) {
		prog := testutil.MustBuild(t, resolutionSrc)
		main := testutil.FuncByName(t, prog, "main")
		inline.Program(prog, inline.Options{})
		got := strings.Join(argOwners(prog, main), " ")
		// f's body, inlined into main, keeps naming f's variables.
		if want := "main.x f.a f.y"; got != want {
			t.Errorf("main's call arguments resolve to %q, want %q", got, want)
		}
	})

	t.Run("clone", func(t *testing.T) {
		prog := testutil.MustBuild(t, resolutionSrc)
		ctx := icp.Prepare(prog)
		res := icp.Analyze(ctx, icp.Options{Method: icp.FlowSensitive})
		if rep := clone.Run(ctx, res, clone.Options{}); rep.Cloned == 0 {
			t.Fatalf("no clone created: %+v", rep)
		}
		kernel := prog.Sem.ProcByName["kernel"]
		clones := 0
		for _, fn := range prog.Funcs {
			if fn.Proc.Decl != kernel.Decl || fn.Proc == kernel {
				continue
			}
			clones++
			// The clone's recursive call still names the original
			// kernel's formal, which the clone does not own.
			if got, want := strings.Join(argOwners(prog, fn), " "), "kernel.size"; got != want {
				t.Errorf("clone %s: arguments resolve to %q, want %q", fn.Proc.Name, got, want)
			}
		}
		if clones == 0 {
			t.Fatal("no clone of kernel found")
		}
	})

	t.Run("renumbered", func(t *testing.T) {
		prog := testutil.MustBuild(t, resolutionSrc)
		ctx := icp.Prepare(prog)
		f := prog.Sem.ProcByName["f"]
		before := f.Index
		if removed := transform.RemoveDeadProcedures(ctx, nil); strings.Join(removed, ",") != "dead" {
			t.Fatalf("removed %v, want [dead]", removed)
		}
		if f.Index == before {
			t.Fatalf("f kept index %d; the test needs a renumbering", before)
		}
		if got, want := strings.Join(argOwners(prog, prog.FuncOf[f]), " "), "f.a f.y"; got != want {
			t.Errorf("f's arguments resolve to %q, want %q", got, want)
		}
		if c := prog.Sem.Callee(firstCall(t, f)); c != prog.Sem.ProcByName["kernel"] {
			t.Errorf("Callee in f = %v after renumbering", c)
		}
	})
}

func asIdent(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

func TestBreakInsideLoopOK(t *testing.T) {
	mustCheck(t, `program p
proc main() {
  var i int
  while true {
    break
  }
  for i = 1, 3 {
    continue
  }
}`)
}

func TestRecursionAllowed(t *testing.T) {
	p := mustCheck(t, `program p
proc main() { call rec(3) }
proc rec(n int) {
  if n > 0 {
    call rec(n - 1)
  }
}`)
	if p.ProcByName["rec"] == nil {
		t.Fatal("rec missing")
	}
}

func TestTempCreation(t *testing.T) {
	p := mustCheck(t, `program p
proc main() { var x int }`)
	m := p.Main
	n0 := len(m.Locals)
	tv := m.NewTemp(ast.TypeReal)
	if tv.Kind != sem.KindTemp || tv.Type != ast.TypeReal {
		t.Errorf("temp: %+v", tv)
	}
	if len(m.Locals) != n0+1 {
		t.Errorf("temp not registered")
	}
}

func TestFuncAsCallStatement(t *testing.T) {
	// A function invoked as a statement discards its result — legal,
	// like Fortran calling a function for its side effects.
	mustCheck(t, `program p
global g int
proc main() {
  use g
  call bump()
}
func bump() int {
  use g
  g = g + 1
  return g
}`)
}

func TestUseClauseGrantsAssignment(t *testing.T) {
	p := mustCheck(t, `program p
global g int = 1
proc main() {
  use g
  g = 2
}`)
	if p.Main == nil {
		t.Fatal("main missing")
	}
}

func TestNegatedRealGlobalInit(t *testing.T) {
	p := mustCheck(t, `program p
global x real = -0.5
proc main() {}`)
	v := p.GlobalInit[p.Globals[0]]
	if v.R != -0.5 {
		t.Errorf("init: %v", v)
	}
}

func TestDoubleNegatedInitRejected(t *testing.T) {
	// The grammar allows exactly one optional leading minus in a
	// block-data initialiser; the parser rejects a second one.
	if _, err := parser.Parse("t.mf", "program p\nglobal x int = --7\nproc main() {}"); err == nil {
		t.Fatal("expected rejection of --7 initialiser")
	}
}
