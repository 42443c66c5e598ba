package modref_test

import (
	"testing"

	"fsicp/internal/ast"
	"fsicp/internal/modref"
	"fsicp/internal/sem"
	"fsicp/internal/testutil"
)

func TestSetMembershipAndOrder(t *testing.T) {
	prog := testutil.MustCheck(t, `program p
global a int = 1
global b int = 2
global c int = 3
proc main() {
  var x int
  x = 1
  call q(x, x)
}
proc q(f int, g int) { print f }`)
	q, main := prog.ProcByName["q"], prog.Main
	a, b, c := prog.Globals[0], prog.Globals[1], prog.Globals[2]
	f, g := q.Params[0], q.Params[1]

	s := modref.NewSet(q)
	if s.Len() != 0 {
		t.Fatalf("new set Len = %d", s.Len())
	}
	// Insert out of order; Each and Sorted must still list globals by
	// index, then formals by position.
	for _, v := range []*sem.Var{g, c, f, a} {
		if !s.Add(v) {
			t.Fatalf("Add(%s) must report a new member", v)
		}
	}
	if s.Add(c) || s.Add(g) {
		t.Fatal("re-adding a member must report no change")
	}
	for _, v := range []*sem.Var{a, c, f, g} {
		if !s.Has(v) {
			t.Errorf("%s must be a member", v)
		}
	}
	if s.Has(b) {
		t.Error("b was never added")
	}

	// Outside the domain: a local, a temporary, another procedure's
	// formal and another program's global are never members, even where
	// their position matches a member's.
	local := main.Locals[0]
	temp := q.NewTemp(ast.TypeInt)
	other := main.NewParam("f", ast.TypeInt, local.Pos) // position 0, as f in q
	foreign := testutil.MustCheck(t, `program p
global a int = 1
proc main() { }`).Globals[0] // index 0, as a
	for _, v := range []*sem.Var{local, temp, other, foreign} {
		if s.Add(v) || s.Has(v) {
			t.Errorf("%s (%s) must not be a member", v, v.Kind)
		}
	}

	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	want := []*sem.Var{a, c, f, g}
	got := s.Sorted()
	var each []*sem.Var
	s.Each(func(v *sem.Var) { each = append(each, v) })
	for _, seq := range [][]*sem.Var{got, each} {
		if len(seq) != len(want) {
			t.Fatalf("order = %v, want %v", seq, want)
		}
		for i := range want {
			if seq[i] != want[i] {
				t.Fatalf("order = %v, want %v (globals by index, then formals by position)", seq, want)
			}
		}
	}

	var nilSet *modref.Set
	if nilSet.Has(a) || nilSet.Len() != 0 {
		t.Error("a nil set must be empty")
	}
	nilSet.Each(func(v *sem.Var) { t.Errorf("nil set yielded %s", v) })
	if len(nilSet.Sorted()) != 0 {
		t.Error("a nil set must sort to nothing")
	}
}
