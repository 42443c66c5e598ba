package ssa_test

import (
	"reflect"
	"testing"

	"fsicp/internal/bench"
	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/ssa"
)

// pointerFree reports whether values of t hold no pointers the garbage
// collector would have to trace.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.String:
		return false
	}
	return true
}

// TestOverlayTablesArePointerFree pins the compact layout: apart from
// the function and its dominator tree, every table of the overlay — per
// definition, per use, per instruction, per block and per φ — is a
// slice of pointer-free elements, so a resident overlay is a handful of
// objects the garbage collector never scans.
func TestOverlayTablesArePointerFree(t *testing.T) {
	typ := reflect.TypeOf(ssa.SSA{})
	tables := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Fn" || f.Name == "Dom" {
			continue
		}
		switch {
		case f.Type.Kind() == reflect.Slice && pointerFree(f.Type.Elem()):
			tables++
		case pointerFree(f.Type):
		default:
			t.Errorf("SSA.%s has type %s, which holds pointers", f.Name, f.Type)
		}
	}
	if tables == 0 {
		t.Error("SSA has no tables")
	}
}

// TestBuildAllocsBounded pins the allocation count of ssa.Build on the
// largest SPECfp92 procedure. Every table is sized by a counting pass
// and allocated once, so the count is set by the dominator tree (a
// few slices per block with children or a frontier) and a fixed number
// of overlay tables, not by the number of definitions or uses.
func TestBuildAllocsBounded(t *testing.T) {
	var big *ir.Func
	size := func(fn *ir.Func) int {
		n := 0
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
		return n
	}
	for _, p := range bench.SPECfp92() {
		prog := lower(t, p.Name, bench.Build(p))
		icp.Prepare(prog)
		for _, fn := range prog.Funcs {
			if big == nil || size(fn) > size(big) {
				big = fn
			}
		}
	}
	s := ssa.Build(big)
	uses := 0
	for d := ssa.Def(0); int(d) < s.NumDefs(); d++ {
		for u := s.FirstUse(d); u >= 0; u = s.NextUse(u) {
			uses++
		}
	}
	allocs := testing.AllocsPerRun(20, func() { ssa.Build(big) })
	bound := float64(2*len(big.Blocks) + 48)
	t.Logf("%s: %d instructions, %d blocks, %d definitions, %d uses: %.0f allocations (bound %.0f)",
		big.Proc.Name, size(big), len(big.Blocks), s.NumDefs(), uses, allocs, bound)
	if allocs > bound {
		t.Errorf("ssa.Build allocates %.0f times on %s, bound %.0f", allocs, big.Proc.Name, bound)
	}
}
