package transform

import (
	"fsicp/internal/ir"
	"fsicp/internal/ssa"
)

// copyPropFunc rewrites operands to read a copy's source directly:
// for a use of d whose reaching definition is the copy d = s, the use
// becomes a use of s when s provably holds the same value there. Copy
// chains are followed transitively (d = s, s = r ⇒ uses of d read r).
//
// Validity for one step, with S the reaching definition of s at the
// copy:
//
//   - S is the entry definition and s has no other definition in the
//     function — s is immutable, so its value at the use equals its
//     value at the copy; or
//   - S is s's only real definition (instruction or φ counts include
//     call may-defs and alias clobbers, so interprocedural writes
//     block this) and S's block dominates the use — then S is the
//     reaching definition of s at the use, too.
//
// Call arguments are never rewritten: replacing an lvalue actual would
// change which variable the callee writes through (ir.CallInstr.ByRef).
func (st *optState) copyPropFunc(i int) PassReport {
	pr := PassReport{Pass: PassCopyProp}
	s := st.overlay(i)
	fn := s.Fn
	nd := defCounts(s)

	// step follows one copy link for a use in block b; pos is the use's
	// instruction ID for same-block ordering (block-order numbering is
	// current: ssa.Build numbers, and the fold pass preserves IDs), or
	// -1 for a terminator use (which follows every instruction).
	step := func(d ssa.Def, b *ir.Block, pos int) ssa.Def {
		cp, ok := s.Instr(d).(*ir.CopyInstr)
		if !ok {
			return ssa.NoDef
		}
		src := s.UsesOf(cp)[0]
		switch s.Kind(src) {
		case ssa.DefEntry:
			if nd[fn.VarOrd(cp.Src)] != 0 {
				return ssa.NoDef
			}
			return src
		case ssa.DefInstr:
			if nd[fn.VarOrd(cp.Src)] != 1 {
				return ssa.NoDef
			}
			if srcBlock := s.Block(src); srcBlock == b {
				if pos >= 0 && s.InstrID(src) >= pos {
					return ssa.NoDef
				}
			} else if !s.Dom.Dominates(srcBlock, b) {
				return ssa.NoDef
			}
			return src
		}
		return ssa.NoDef
	}
	follow := func(d ssa.Def, b *ir.Block, pos int) (ssa.Def, bool) {
		moved := false
		for {
			next := step(d, b, pos)
			if next == ssa.NoDef {
				return d, moved
			}
			d = next
			moved = true
		}
	}

	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			if _, isCall := in.(*ir.CallInstr); isCall {
				continue
			}
			uds := s.UsesOf(in)
			for k := range uds {
				if nd2, moved := follow(uds[k], b, in.InstrID()); moved {
					s.ReplaceUseOperand(b, in, k, nd2)
					pr.CopiesPropagated++
				}
			}
		}
		tds := s.TermUses(b.Index)
		for k := range tds {
			if nd2, moved := follow(tds[k], b, -1); moved {
				s.ReplaceTermOperand(b, k, nd2)
				pr.CopiesPropagated++
			}
		}
	}
	return pr
}
