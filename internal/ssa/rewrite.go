package ssa

import "fsicp/internal/ir"

// This file lets transformation passes rewrite instructions in place
// while keeping the overlay's def-use tables consistent, so a pipeline
// of passes (fold, copy propagation, CSE, LICM) can compose on one
// overlay instead of rebuilding SSA from scratch between passes.
//
// The contract throughout: the rewritten instruction keeps its dense
// InstrID (ir.TransferID), so every ID-indexed table stays valid, and
// the definitions it creates are reused — their IDs, lattice values,
// and use chains survive. A pass that changes the CFG itself (branch
// folding) must still rebuild.

// removeUse unlinks the first use record on d's chain that match
// accepts.
func (s *SSA) removeUse(d Def, match func(Use) bool) {
	prev := int32(-1)
	for u := s.useHead[d]; u >= 0; prev, u = u, s.useNext[u] {
		if !match(s.uses[u]) {
			continue
		}
		next := s.useNext[u]
		if prev < 0 {
			s.useHead[d] = next
		} else {
			s.useNext[prev] = next
		}
		if s.useTail[d] == u {
			s.useTail[d] = prev
		}
		return
	}
}

// removeInstrUse unlinks one use of d by instruction id.
func (s *SSA) removeInstrUse(d Def, id int32) {
	s.removeUse(d, func(u Use) bool { return u.Kind == UseInstr && u.Site == id })
}

// detachOperands unlinks every operand use of b.Instrs[idx] and returns
// the instruction and its span. Shared prologue of the RewriteTo* pair.
func (s *SSA) detachOperands(b *ir.Block, idx int) (ir.Instr, *instrSpan) {
	old := b.Instrs[idx]
	id := int32(old.InstrID())
	sp := &s.instrs[id]
	for _, d := range s.refs[sp.uses:sp.globals] {
		s.removeInstrUse(d, id)
	}
	return old, sp
}

// RewriteToConst replaces b.Instrs[idx] — a single-def instruction —
// with nc, transferring the instruction ID and the dst definition. The
// old instruction's operand uses are unlinked; the definition keeps its
// ID, value, and uses.
func (s *SSA) RewriteToConst(b *ir.Block, idx int, nc *ir.ConstInstr) {
	old, sp := s.detachOperands(b, idx)
	ir.TransferID(old, nc)
	sp.uses = sp.globals
	b.Instrs[idx] = nc
}

// RewriteToCopy replaces b.Instrs[idx] — a single-def instruction with
// at least one operand — with the copy nc, whose source operand's
// reaching definition is src.
func (s *SSA) RewriteToCopy(b *ir.Block, idx int, nc *ir.CopyInstr, src Def) {
	old, sp := s.detachOperands(b, idx)
	if sp.uses == sp.globals {
		panic("ssa: RewriteToCopy of an instruction without operands")
	}
	ir.TransferID(old, nc)
	sp.uses = sp.globals - 1
	s.refs[sp.uses] = src
	s.addUse(src, Use{Kind: UseInstr, Block: int32(b.Index), Site: int32(nc.InstrID())})
	b.Instrs[idx] = nc
}

// ReplaceUseOperand redirects in's k-th operand (located in block b) to
// read nd's variable, with nd as its reaching definition. The caller
// must have established that nd's value equals the old operand's on
// every path reaching the use (copy propagation's validity condition).
func (s *SSA) ReplaceUseOperand(b *ir.Block, in ir.Instr, k int, nd Def) {
	id := int32(in.InstrID())
	slot := s.instrs[id].uses + int32(k)
	s.removeInstrUse(s.refs[slot], id)
	ir.SetUse(in, k, s.Var(nd))
	s.refs[slot] = nd
	s.addUse(nd, Use{Kind: UseInstr, Block: int32(b.Index), Site: id})
}

// ReplaceTermOperand is ReplaceUseOperand for b's terminator.
func (s *SSA) ReplaceTermOperand(b *ir.Block, k int, nd Def) {
	bi := int32(b.Index)
	slot := s.blocks[bi].term + int32(k)
	s.removeUse(s.refs[slot], func(u Use) bool { return u.Kind == UseTerm && u.Block == bi })
	ir.SetTermUse(b.Term, k, s.Var(nd))
	s.refs[slot] = nd
	s.addUse(nd, Use{Kind: UseTerm, Block: bi, Site: -1})
}

// RenumberInstrs renumbers the function after instructions moved
// between blocks (LICM) and rebuilds every table keyed by instruction
// ID or holding an instruction's block: the spans, the defining
// instruction and block of every instruction definition, and the
// instruction use records. Block membership and the CFG must be
// unchanged apart from the moves.
func (s *SSA) RenumberInstrs() {
	type site struct{ id, blk int32 }
	remap := make([]site, len(s.instrs))
	for i := range remap {
		remap[i] = site{-1, -1}
	}
	n := 0
	for _, b := range s.Fn.Blocks {
		n += len(b.Instrs)
	}
	spans := make([]instrSpan, n)
	id := int32(0)
	for bi, b := range s.Fn.Blocks {
		s.blocks[bi].first = id
		for _, in := range b.Instrs {
			if old := in.InstrID(); old >= 0 && old < len(remap) {
				spans[id] = s.instrs[old]
				remap[old] = site{id, int32(bi)}
			}
			id++
		}
	}
	s.Fn.NumberInstrs()
	s.instrs = spans
	for i, old := range s.defInstr {
		if old >= 0 && remap[old].id >= 0 {
			s.defInstr[i], s.defBlock[i] = remap[old].id, remap[old].blk
		}
	}
	for i := range s.uses {
		u := &s.uses[i]
		if u.Kind == UseInstr && remap[u.Site].id >= 0 {
			u.Site, u.Block = remap[u.Site].id, remap[u.Site].blk
		}
	}
}
