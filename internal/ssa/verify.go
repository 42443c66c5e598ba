package ssa

import (
	"fmt"

	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// Verify checks the structural invariants of the SSA overlay and
// returns every violation found (empty means well-formed):
//
//   - every use's reaching definition is a definition of the same
//     variable;
//   - every instruction-use definition dominates the using
//     instruction's block (or is in the same block, defined earlier);
//   - every φ argument's definition dominates the corresponding
//     predecessor block;
//   - every definition registered for an instruction matches the
//     instruction's Defs() list and records the instruction's ID and
//     block, and the block tables resolve that ID back to the
//     instruction;
//   - def-use back edges are consistent (every recorded use points
//     back to a definition that lists it, and every chain ends at its
//     tail).
//
// It exists because dominance-based SSA construction bugs are silent:
// the constant propagator would still run, just on wrong def-use
// chains. The property tests verify every randomly generated program.
func (s *SSA) Verify() []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	ndefs := Def(s.NumDefs())
	valid := func(d Def) bool { return d >= 0 && d < ndefs }

	// Block positions of instructions for same-block ordering checks.
	instrPos := make([]int, len(s.instrs))
	for _, b := range s.Dom.RPO {
		for i, in := range b.Instrs {
			if id := in.InstrID(); id >= 0 && id < len(instrPos) {
				instrPos[id] = i
			}
		}
	}

	defPos := func(d Def) (blk *ir.Block, pos int) {
		switch s.Kind(d) {
		case DefEntry:
			return s.Dom.RPO[0], -2 // before everything
		case DefPhi:
			return s.Block(d), -1 // φs precede instructions
		default:
			return s.Block(d), instrPos[s.InstrID(d)]
		}
	}

	// dominatesUse: definition d must dominate a use at (b, pos).
	dominatesUse := func(d Def, b *ir.Block, pos int) bool {
		db, dp := defPos(d)
		if db == b {
			return dp < pos
		}
		return s.Dom.Dominates(db, b)
	}

	// checkOperands verifies the reaching definitions of one operand
	// list at position pos of block b.
	checkOperands := func(what string, vars []*sem.Var, ds []Def, b *ir.Block, pos int) {
		if len(vars) != len(ds) {
			report("%s: %d uses but %d reaching defs", what, len(vars), len(ds))
			return
		}
		for k, d := range ds {
			if !valid(d) {
				report("%s: use %d has no reaching def", what, k)
				continue
			}
			if s.Var(d) != vars[k] {
				report("%s: use %d of %s resolved to def of %s", what, k, vars[k], s.Var(d))
			}
			if !dominatesUse(d, b, pos) {
				report("%s: def %s does not dominate use", what, s.DefString(d))
			}
		}
	}

	// Only reachable instructions are renamed, so walk the RPO rather
	// than the (dense, whole-function) overlay tables.
	for _, b := range s.Dom.RPO {
		for i, in := range b.Instrs {
			id := in.InstrID()
			if id < 0 || id >= len(s.instrs) {
				report("%s: instruction ID %d outside the overlay", in, id)
				continue
			}
			if got := s.InstrAt(int32(b.Index), int32(id)); got != in {
				report("%s: ID %d resolves to %v", in, id, got)
			}
			checkOperands(in.String(), in.Uses(), s.UsesOf(in), b, i)

			ids := s.DefsOf(in)
			defs := in.Defs()
			if len(defs) != len(ids) {
				report("%s: %d defs but %d definitions", in, len(defs), len(ids))
				continue
			}
			for k, d := range ids {
				if !valid(d) {
					report("%s: def %d out of range", in, k)
					continue
				}
				if s.Var(d) != defs[k] {
					report("%s: def %d of %s registered as %s", in, k, defs[k], s.Var(d))
				}
				if s.Kind(d) != DefInstr || s.InstrID(d) != id || s.Block(d) != b {
					report("%s: def %d not linked back to instruction", in, k)
				}
			}
		}
	}

	for _, b := range s.Dom.RPO {
		lo, hi := s.PhiDefs(b.Index)
		for d := lo; d < hi; d++ {
			if s.Kind(d) != DefPhi || s.Block(d) != b {
				report("phi %s in %s: not registered to its block", s.DefString(d), b)
			}
			args := s.PhiArgs(d)
			if len(args) != len(b.Preds) {
				report("phi %s in %s: %d args for %d preds", s.DefString(d), b, len(args), len(b.Preds))
				continue
			}
			for i, a := range args {
				pred := b.Preds[i]
				if !s.Dom.Reachable(pred) {
					continue // argument from unreachable predecessor is unconstrained
				}
				if !valid(a) {
					report("phi %s in %s: no arg %d from reachable pred %s", s.DefString(d), b, i, pred)
					continue
				}
				if s.VarOrd(a) != s.VarOrd(d) {
					report("phi %s: arg %d is a def of %s", s.DefString(d), i, s.Var(a))
				}
				// The arg's def must dominate the end of the predecessor.
				db, _ := defPos(a)
				if db != pred && !s.Dom.Dominates(db, pred) {
					report("phi %s: arg %d def %s does not dominate pred %s", s.DefString(d), i, s.DefString(a), pred)
				}
			}
		}
		if b.Term != nil {
			checkOperands(b.String()+" terminator", b.Term.Uses(), s.TermUses(b.Index), b, len(b.Instrs))
		}
	}

	// Def-use back-edge consistency.
	contains := func(ds []Def, d Def) bool {
		for _, x := range ds {
			if x == d {
				return true
			}
		}
		return false
	}
	for d := Def(0); d < ndefs; d++ {
		last := int32(-1)
		for u := s.FirstUse(d); u >= 0; u = s.NextUse(u) {
			last = u
			use := s.UseAt(u)
			switch use.Kind {
			case UseInstr:
				b := s.Fn.Blocks[use.Block]
				id := use.Site - s.blocks[use.Block].first
				if id < 0 || int(id) >= len(b.Instrs) {
					report("def %s lists use %d outside block %s", s.DefString(d), use.Site, b)
					continue
				}
				if in := s.InstrAt(use.Block, use.Site); !contains(s.UsesOf(in), d) {
					report("def %s lists use in %s not recorded there", s.DefString(d), in)
				}
			case UsePhi:
				if args := s.PhiArgs(Def(use.Site)); args[use.Arg] != d {
					report("def %s lists phi use %d not recorded", s.DefString(d), use.Arg)
				}
			case UseTerm:
				if !contains(s.TermUses(int(use.Block)), d) {
					report("def %s lists terminator use in b%d not recorded", s.DefString(d), use.Block)
				}
			}
		}
		if s.useTail[d] != last {
			report("def %s: use chain does not end at its tail", s.DefString(d))
		}
	}
	return bad
}
