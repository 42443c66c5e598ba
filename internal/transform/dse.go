package transform

import (
	"fsicp/internal/ir"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/token"
)

// dseFunc is the dead-store-elimination pass for one function: it
// deletes pure computations whose result is never observed. Run after
// copy propagation, which is what strands stores — an operand
// redirected past a copy leaves the copy useless — and before CSE, so
// the dominator walk no longer sees the corpses.
//
// Each round deletes every currently dead store at once, then rebuilds
// the overlay: deleting a store can strand the stores feeding it, so
// rounds repeat until none is found (chains die one link per round,
// bounded by the longest def-use chain).
func (st *optState) dseFunc(i int) PassReport {
	pr := PassReport{Pass: PassDSE}
	for {
		s := st.overlay(i)
		removed := 0
		for _, b := range s.Fn.Blocks {
			orig := b.Instrs
			keep := orig[:0]
			for _, in := range orig {
				if deadStore(s, in) {
					removed++
					continue
				}
				keep = append(keep, in)
			}
			for k := len(keep); k < len(orig); k++ {
				orig[k] = nil // release the deleted tail
			}
			b.Instrs = keep
		}
		if removed == 0 {
			return pr
		}
		pr.DeadStores += removed
		// Instruction IDs must stay dense and the def/use tables index
		// the old numbering: renumber and force a rebuild.
		s.Fn.NumberInstrs()
		st.ssas[i] = nil
	}
}

// deadStore reports whether in may be deleted: a pure computation
// whose destination is a local or temporary and whose definition has
// no uses at all.
//
//   - Only const/copy/unary/binary qualify; binary QUO/REM are kept
//     because division can abort at run time (the interpreter stops on
//     division by zero), and deleting one would change observable
//     behaviour.
//   - Formals and globals are excluded: both are observable at
//     procedure exit (by-reference returns, scc.Result.ExitValue).
//   - "No uses" covers every reader the overlay tracks — instruction
//     operands, φ arguments, and terminator operands. Ret.Val is a
//     terminator use, so the store feeding a function's result is
//     protected automatically.
func deadStore(s *ssa.SSA, in ir.Instr) bool {
	switch b := in.(type) {
	case *ir.ConstInstr, *ir.CopyInstr, *ir.UnaryInstr:
	case *ir.BinaryInstr:
		if b.Op == token.QUO || b.Op == token.REM {
			return false
		}
	default:
		return false
	}
	dst := in.Defs()[0]
	if dst.Kind != sem.KindLocal && dst.Kind != sem.KindTemp {
		return false
	}
	defs := s.DefsOf(in)
	return len(defs) == 1 && !s.HasUses(defs[0])
}
