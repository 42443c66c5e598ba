// Package testutil provides shared helpers for compiling MiniFort
// snippets inside tests.
package testutil

import (
	"testing"

	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/parser"
	"fsicp/internal/sem"
	"fsicp/internal/source"
)

// MustCheck parses and checks src, failing the test on any error.
func MustCheck(t testing.TB, src string) *sem.Program {
	t.Helper()
	f := source.NewFile("test.mf", src)
	prog, err := parser.ParseFile(f)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	p, err := sem.Check(prog, f)
	if err != nil {
		t.Fatalf("check failed: %v", err)
	}
	return p
}

// MustBuild parses, checks, and lowers src to IR.
func MustBuild(t testing.TB, src string) *ir.Program {
	t.Helper()
	p := MustCheck(t, src)
	prog, err := irbuild.Build(p)
	if err != nil {
		t.Fatalf("irbuild failed: %v", err)
	}
	return prog
}

// FuncByName returns the IR function for the named procedure.
func FuncByName(t testing.TB, p *ir.Program, name string) *ir.Func {
	t.Helper()
	proc := p.Sem.ProcByName[name]
	if proc == nil {
		t.Fatalf("no procedure %q", name)
	}
	return p.FuncOf[proc]
}

// VarByName finds a variable f tracks (formal, local, or global) by
// name, falling back to the program's globals: f tracks only the
// globals its body names until modref adds the rest of its MOD∪REF.
func VarByName(t testing.TB, f *ir.Func, name string) *sem.Var {
	t.Helper()
	for _, v := range f.AllVars {
		if v.Name == name {
			return v
		}
	}
	for _, g := range f.Proc.Prog.Globals {
		if g.Name == name {
			return g
		}
	}
	t.Fatalf("no variable %q in %s", name, f.Proc.Name)
	return nil
}
