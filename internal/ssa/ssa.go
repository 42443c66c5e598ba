// Package ssa converts the CFG IR of one procedure into SSA def-use
// form, following Cytron, Ferrante, Rosen, Wegman and Zadeck (TOPLAS
// 1991): φ-functions are placed on iterated dominance frontiers and a
// dominator-tree walk renames uses to their reaching definitions.
//
// The representation is "overlay" SSA: the underlying ir instructions
// are untouched; this package records, for every instruction operand,
// which definition reaches it, and for every instruction, the
// definitions it creates. Call instructions define their may-modified
// variables (ir.CallInstr.MayDef, filled by the modref phase), which is
// how interprocedural kills become visible to the intraprocedural
// propagator.
//
// Every tracked variable (ir.Func.AllVars: the procedure's own
// variables and the globals in its MOD∪REF) has an implicit entry
// definition (formal parameter, global at procedure entry, or undefined
// local); the entry definitions of formals and globals are the
// injection points for interprocedural constants. For each call site
// the renamer snapshots the reaching definition of every tracked
// global, which the flow-sensitive ICP uses to read "the value of
// global g at this call site" — the callee's REF is a subset of the
// caller's, so every global a call site is asked about is tracked.
//
// Definitions are dense per-function int32 IDs (Def), the layout the Go
// compiler uses for its Value.ID: entry definitions are 0..len(AllVars)-1
// and own no storage, φ definitions follow grouped by block, then the
// instruction definitions in renaming order. Every table is a slice of
// integers, so a resident overlay costs the garbage collector nothing
// to scan; accessors recover *sem.Var, *ir.Block and ir.Instr from the
// function's own tables.
package ssa

import (
	"strconv"
	"strings"

	"fsicp/internal/bitset"
	"fsicp/internal/dom"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// Def is a definition ID, dense within one function's overlay.
type Def int32

// NoDef marks an absent definition: a φ argument from a predecessor
// the renamer never reached, or a lookup outside the overlay.
const NoDef Def = -1

// DefKind classifies a definition.
type DefKind uint8

const (
	// DefEntry is the implicit definition of a variable at procedure
	// entry: the incoming formal value, the global's value at entry, or
	// an undefined local.
	DefEntry DefKind = iota
	// DefInstr is a definition created by an instruction.
	DefInstr
	// DefPhi is a φ-function.
	DefPhi
)

// UseKind classifies a use site.
type UseKind uint8

const (
	UseInstr UseKind = iota // operand of an instruction
	UsePhi                  // argument of a φ
	UseTerm                 // operand of a terminator
)

// Use is one use site of a definition.
type Use struct {
	Kind UseKind
	// Block is the index of the block holding the using instruction or
	// terminator; for UsePhi, the φ's block.
	Block int32
	// Site is the using instruction's ID (UseInstr) or the φ's
	// definition (UsePhi).
	Site int32
	// Arg is the φ argument, i.e. the predecessor edge (UsePhi).
	Arg int32
}

// instrSpan locates one instruction's tables in SSA.refs: the reaching
// definitions of its operands, the tracked globals' reaching
// definitions just before it (calls only), and the definitions it
// creates. Spans are independent of each other, so a rewrite can
// shrink one instruction's operand range in place.
type instrSpan struct{ uses, globals, defs, end int32 }

// blockSpan holds one block's tables: the ID of its first instruction
// (instructions are numbered in block order), its φ indices, and the
// ranges of SSA.refs holding its terminator's operand definitions and,
// for a return block, the reaching definition of every variable.
type blockSpan struct{ first, phiLo, phiHi, term, ret, end int32 }

// SSA is the SSA overlay for one function.
type SSA struct {
	Fn  *ir.Func
	Dom *dom.Tree

	nvars int32 // entry definitions are 0..nvars-1

	// Definition d ≥ nvars is described at d-nvars: its variable's
	// AllVars ordinal, its block index, and its instruction ID (-1 for
	// a φ). φ i is definition nvars+i.
	defVar   []int32
	defBlock []int32
	defInstr []int32

	// φ i's arguments, parallel to its block's Preds, are
	// phiArgs[phiArgOff[i]:phiArgOff[i+1]].
	phiArgOff []int32
	phiArgs   []Def

	// refs holds every reaching-definition table the spans locate.
	refs   []Def
	instrs []instrSpan // by instruction ID
	blocks []blockSpan // by block index

	// Def→use chains, in the order the uses were recorded: useHead and
	// useTail per definition, useNext per use record (-1 ends a chain).
	useHead []int32
	useTail []int32
	uses    []Use
	useNext []int32
}

// Build constructs SSA form for fn.
//
// Build only reads the function: the IR builder and every mutation
// pass (via ir.RebuildCallLists) keep instruction numbering current,
// so concurrent builds over a shared program are safe. The renumbering
// fallback below fires only for hand-assembled functions that never
// went through those paths.
//
// Every table is sized by one counting pass over the reachable blocks
// before it is filled, so the number of allocations does not grow with
// the function.
func Build(fn *ir.Func) *SSA {
	n := fn.NumInstrs
	if !fn.Numbered() {
		n = fn.NumberInstrs()
	}
	nvars := len(fn.AllVars)
	s := &SSA{Fn: fn, Dom: dom.New(fn), nvars: int32(nvars)}
	s.instrs = make([]instrSpan, n)
	s.blocks = make([]blockSpan, len(fn.Blocks))
	first := int32(0)
	for i, b := range fn.Blocks {
		s.blocks[i].first = first
		first += int32(len(b.Instrs))
	}

	// Counting pass: definitions per variable (the φ placement's
	// def-block lists), instruction definitions, reaching-definition
	// slots and use records.
	var buf []*sem.Var
	nglobals := len(fn.Globals())
	defOff := make([]int32, nvars+1)
	nrefs, nuses := 0, 0
	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			buf = ir.AppendUses(buf[:0], in)
			nrefs += len(buf)
			nuses += len(buf)
			if _, ok := in.(*ir.CallInstr); ok {
				nrefs += nglobals
			}
			buf = ir.AppendDefs(buf[:0], in)
			nrefs += len(buf)
			for _, v := range buf {
				defOff[fn.VarOrd(v)+1]++
			}
		}
		if b.Term != nil {
			buf = ir.AppendTermUses(buf[:0], b.Term)
			nrefs += len(buf)
			nuses += len(buf)
			if _, isRet := b.Term.(*ir.Ret); isRet {
				nrefs += nvars
			}
		}
	}
	for i := 0; i < nvars; i++ {
		defOff[i+1] += defOff[i]
	}
	ninstrDefs := int(defOff[nvars])

	s.placePhis(defOff, ninstrDefs, buf)
	ndefs := nvars + len(s.defVar) + ninstrDefs
	s.refs = make([]Def, 0, nrefs)
	nuses += len(s.phiArgs)
	s.uses = make([]Use, 0, nuses)
	s.useNext = make([]int32, 0, nuses)
	s.useHead = make([]int32, ndefs)
	s.useTail = make([]int32, ndefs)
	for i := range s.useHead {
		s.useHead[i], s.useTail[i] = -1, -1
	}
	s.rename(buf)
	return s
}

// placePhis inserts φ-functions using iterated dominance frontiers.
// defOff[v]..defOff[v+1] counts variable v's instruction definitions;
// the def-block lists are laid out in one array at those offsets. The
// placed φs are numbered grouped by block — in variable order within a
// block, the order the per-variable placement loop visits them — and
// their variable and block fill the first entries of the definition
// tables, allocated with room for the ninstrDefs instruction
// definitions renaming appends. The placed-φ and worklist membership
// sets are bitsets keyed by block*nvars+var and block index.
func (s *SSA) placePhis(defOff []int32, ninstrDefs int, buf []*sem.Var) {
	fn := s.Fn
	nvars := len(fn.AllVars)
	nblocks := len(fn.Blocks)
	defBlocks := make([]*ir.Block, defOff[nvars])
	fill := make([]int32, nvars)
	copy(fill, defOff[:nvars])
	for _, b := range s.Dom.RPO {
		for _, in := range b.Instrs {
			buf = ir.AppendDefs(buf[:0], in)
			for _, v := range buf {
				i := fn.VarOrd(v)
				defBlocks[fill[i]] = b
				fill[i]++
			}
		}
	}
	// block*nvars+var -> placed. The domain is quadratic in function
	// size; NewAuto spills to the sparse form past the threshold so a
	// giant merged corpus function cannot allocate a multi-megabyte
	// dense grid for the handful of φs it actually places.
	hasPhi := bitset.NewAuto(nblocks * nvars)
	inWork := bitset.New(nblocks)
	var work []*ir.Block
	var placed []int32 // block, var pairs in placement order
	phiCount := make([]int32, nblocks+1)
	for vi := 0; vi < nvars; vi++ {
		work = append(work[:0], defBlocks[defOff[vi]:defOff[vi+1]]...)
		// Every variable also has its entry definition in the entry
		// block.
		work = append(work, s.Dom.RPO[0])
		inWork.Clear()
		for _, b := range work {
			inWork.Add(b.Index)
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range s.Dom.Frontier(b) {
				if !hasPhi.Add(f.Index*nvars + vi) {
					continue
				}
				placed = append(placed, int32(f.Index), int32(vi))
				phiCount[f.Index+1]++
				if inWork.Add(f.Index) {
					work = append(work, f)
				}
			}
		}
	}
	for b := 0; b < nblocks; b++ {
		phiCount[b+1] += phiCount[b]
		s.blocks[b].phiLo = phiCount[b]
		s.blocks[b].phiHi = phiCount[b]
	}
	nphis := len(placed) / 2
	s.defVar = make([]int32, nphis, nphis+ninstrDefs)
	s.defBlock = make([]int32, nphis, nphis+ninstrDefs)
	s.defInstr = make([]int32, nphis, nphis+ninstrDefs)
	for k := 0; k < len(placed); k += 2 {
		b, vi := placed[k], placed[k+1]
		i := s.blocks[b].phiHi
		s.blocks[b].phiHi++
		s.defVar[i], s.defBlock[i], s.defInstr[i] = vi, b, -1
	}
	s.phiArgOff = make([]int32, nphis+1)
	for i := 0; i < nphis; i++ {
		s.phiArgOff[i+1] = s.phiArgOff[i] + int32(len(fn.Blocks[s.defBlock[i]].Preds))
	}
	s.phiArgs = make([]Def, s.phiArgOff[nphis])
	for i := range s.phiArgs {
		s.phiArgs[i] = NoDef
	}
}

// rename walks the dominator tree assigning reaching definitions. The
// current reaching definition of every variable lives in one slice;
// each definition pushed in a block logs the value it shadowed, and
// leaving the block's subtree unwinds the log to the block's mark. The
// walk is iterative but visits blocks — and so records uses — in the
// order of a recursive preorder walk over the dominator children.
func (s *SSA) rename(buf []*sem.Var) {
	fn := s.Fn
	nvars := s.nvars
	globals := fn.Globals()
	cur := make([]Def, nvars)
	for i := range cur {
		cur[i] = Def(i)
	}
	type shadow struct {
		vi   int32
		prev Def
	}
	log := make([]shadow, 0, cap(s.defVar))
	push := func(vi int32, d Def) {
		log = append(log, shadow{vi, cur[vi]})
		cur[vi] = d
	}

	visit := func(b *ir.Block) {
		bi := int32(b.Index)
		bs := &s.blocks[bi]
		for p := bs.phiLo; p < bs.phiHi; p++ {
			push(s.defVar[p], Def(nvars+p))
		}
		for _, in := range b.Instrs {
			id := int32(in.InstrID())
			sp := &s.instrs[id]
			sp.uses = int32(len(s.refs))
			buf = ir.AppendUses(buf[:0], in)
			for _, v := range buf {
				d := cur[fn.VarOrd(v)]
				s.refs = append(s.refs, d)
				s.addUse(d, Use{Kind: UseInstr, Block: bi, Site: id})
			}
			sp.globals = int32(len(s.refs))
			if _, ok := in.(*ir.CallInstr); ok {
				for _, g := range globals {
					s.refs = append(s.refs, cur[fn.VarOrd(g)])
				}
			}
			sp.defs = int32(len(s.refs))
			buf = ir.AppendDefs(buf[:0], in)
			for _, v := range buf {
				vi := int32(fn.VarOrd(v))
				d := Def(nvars) + Def(len(s.defVar))
				s.defVar = append(s.defVar, vi)
				s.defBlock = append(s.defBlock, bi)
				s.defInstr = append(s.defInstr, id)
				s.refs = append(s.refs, d)
				push(vi, d)
			}
			sp.end = int32(len(s.refs))
		}
		bs.term = int32(len(s.refs))
		if b.Term != nil {
			buf = ir.AppendTermUses(buf[:0], b.Term)
			for _, v := range buf {
				d := cur[fn.VarOrd(v)]
				s.refs = append(s.refs, d)
				s.addUse(d, Use{Kind: UseTerm, Block: bi, Site: -1})
			}
		}
		bs.ret = int32(len(s.refs))
		if _, isRet := b.Term.(*ir.Ret); isRet {
			s.refs = append(s.refs, cur...)
		}
		bs.end = int32(len(s.refs))
		for _, succ := range b.Succs {
			pi := int32(predIndex(succ, b))
			ss := s.blocks[succ.Index]
			for p := ss.phiLo; p < ss.phiHi; p++ {
				d := cur[s.defVar[p]]
				s.phiArgs[s.phiArgOff[p]+pi] = d
				s.addUse(d, Use{Kind: UsePhi, Block: int32(succ.Index), Site: nvars + p, Arg: pi})
			}
		}
	}

	type frame struct {
		b     *ir.Block
		mark  int
		child int
	}
	entry := s.Dom.RPO[0]
	visit(entry)
	stack := []frame{{b: entry}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if kids := s.Dom.Children(top.b); top.child < len(kids) {
			c := kids[top.child]
			top.child++
			mark := len(log)
			visit(c)
			stack = append(stack, frame{b: c, mark: mark})
			continue
		}
		for len(log) > top.mark {
			sh := log[len(log)-1]
			cur[sh.vi] = sh.prev
			log = log[:len(log)-1]
		}
		stack = stack[:len(stack)-1]
	}
}

func predIndex(b *ir.Block, pred *ir.Block) int {
	for i, p := range b.Preds {
		if p == pred {
			return i
		}
	}
	panic("ssa: predecessor not found")
}

// addUse appends a use record to d's chain.
func (s *SSA) addUse(d Def, u Use) {
	ui := int32(len(s.uses))
	s.uses = append(s.uses, u)
	s.useNext = append(s.useNext, -1)
	if t := s.useTail[d]; t < 0 {
		s.useHead[d] = ui
	} else {
		s.useNext[t] = ui
	}
	s.useTail[d] = ui
}

// NumDefs returns the number of definitions; IDs are 0..NumDefs()-1.
func (s *SSA) NumDefs() int { return int(s.nvars) + len(s.defVar) }

// Kind classifies d.
func (s *SSA) Kind(d Def) DefKind {
	switch {
	case int32(d) < s.nvars:
		return DefEntry
	case s.defInstr[int32(d)-s.nvars] < 0:
		return DefPhi
	}
	return DefInstr
}

// VarOrd returns the AllVars position of d's variable.
func (s *SSA) VarOrd(d Def) int {
	if int32(d) < s.nvars {
		return int(d)
	}
	return int(s.defVar[int32(d)-s.nvars])
}

// Var returns the variable d defines.
func (s *SSA) Var(d Def) *sem.Var { return s.Fn.AllVars[s.VarOrd(d)] }

// Block returns the block holding d, or nil for an entry definition
// (conceptually the entry block).
func (s *SSA) Block(d Def) *ir.Block {
	if int32(d) < s.nvars {
		return nil
	}
	return s.Fn.Blocks[s.defBlock[int32(d)-s.nvars]]
}

// InstrID returns the ID of the instruction defining d, or -1 unless d
// is an instruction definition.
func (s *SSA) InstrID(d Def) int {
	if int32(d) < s.nvars {
		return -1
	}
	return int(s.defInstr[int32(d)-s.nvars])
}

// Instr returns the instruction defining d, or nil unless d is an
// instruction definition.
func (s *SSA) Instr(d Def) ir.Instr {
	id := s.InstrID(d)
	if id < 0 {
		return nil
	}
	return s.InstrAt(s.defBlock[int32(d)-s.nvars], int32(id))
}

// InstrAt returns the instruction with ID id, which block blk holds.
func (s *SSA) InstrAt(blk, id int32) ir.Instr {
	return s.Fn.Blocks[blk].Instrs[id-s.blocks[blk].first]
}

// PhiDefs returns the φ definitions at the head of block blk: the IDs
// lo..hi-1.
func (s *SSA) PhiDefs(blk int) (lo, hi Def) {
	bs := s.blocks[blk]
	return Def(s.nvars + bs.phiLo), Def(s.nvars + bs.phiHi)
}

// PhiArgs returns φ definition d's arguments, parallel to its block's
// Preds; NoDef marks a predecessor the renamer never reached.
func (s *SSA) PhiArgs(d Def) []Def {
	i := int32(d) - s.nvars
	return s.phiArgs[s.phiArgOff[i]:s.phiArgOff[i+1]]
}

// FirstUse returns the first use record on d's chain, or -1.
func (s *SSA) FirstUse(d Def) int32 { return s.useHead[d] }

// NextUse returns the use record after u on its chain, or -1.
func (s *SSA) NextUse(u int32) int32 { return s.useNext[u] }

// UseAt returns use record u.
func (s *SSA) UseAt(u int32) Use { return s.uses[u] }

// HasUses reports whether any use site reads d.
func (s *SSA) HasUses(d Def) bool { return s.useHead[d] >= 0 }

// UsesOf returns the reaching definitions of in's operands (parallel
// to in.Uses()), or nil for an instruction outside this overlay.
func (s *SSA) UsesOf(in ir.Instr) []Def {
	id := in.InstrID()
	if id < 0 || id >= len(s.instrs) {
		return nil
	}
	sp := s.instrs[id]
	return s.refs[sp.uses:sp.globals:sp.globals]
}

// DefsOf returns the definitions in creates (parallel to in.Defs()),
// or nil for an instruction outside this overlay.
func (s *SSA) DefsOf(in ir.Instr) []Def {
	id := in.InstrID()
	if id < 0 || id >= len(s.instrs) {
		return nil
	}
	sp := s.instrs[id]
	return s.refs[sp.defs:sp.end:sp.end]
}

// TermUses returns the reaching definitions of block blk's terminator
// operands (parallel to Term.Uses()).
func (s *SSA) TermUses(blk int) []Def {
	bs := s.blocks[blk]
	return s.refs[bs.term:bs.ret:bs.ret]
}

// RetSnapshot returns, for a reachable block ending in a Ret, the
// reaching definition of every variable (indexed like Fn.AllVars) at
// the return point, and nil for any other block. The return-constant
// extension reads formal and global exit values from it.
func (s *SSA) RetSnapshot(blk int) []Def {
	bs := s.blocks[blk]
	if bs.ret == bs.end {
		return nil
	}
	return s.refs[bs.ret:bs.end:bs.end]
}

// EntryDef returns the entry definition of v, or NoDef when the
// function does not track v.
func (s *SSA) EntryDef(v *sem.Var) Def { return Def(s.Fn.VarOrd(v)) }

// GlobalAtCall returns the reaching definition of global g just before
// call, or NoDef when the function does not track g or the call is not
// part of this overlay.
func (s *SSA) GlobalAtCall(call *ir.CallInstr, g *sem.Var) Def {
	id, k := call.InstrID(), s.Fn.GlobalPos(g)
	if id < 0 || id >= len(s.instrs) || k < 0 {
		return NoDef
	}
	sp := s.instrs[id]
	if int(sp.globals)+k >= int(sp.defs) {
		return NoDef
	}
	return s.refs[int(sp.globals)+k]
}

// DefString names d for dumps and diagnostics: variable@ID.
func (s *SSA) DefString(d Def) string {
	if d == NoDef {
		return "?"
	}
	return s.Var(d).String() + "@" + strconv.Itoa(int(d))
}

// Dump renders the SSA overlay for debugging.
func (s *SSA) Dump() string {
	var b strings.Builder
	b.WriteString("ssa " + s.Fn.Proc.Name + ":\n")
	names := func(ds []Def, sep string) string {
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = s.DefString(d)
		}
		return strings.Join(parts, sep)
	}
	for _, blk := range s.Dom.RPO {
		b.WriteString(blk.String() + ":\n")
		lo, hi := s.PhiDefs(blk.Index)
		for d := lo; d < hi; d++ {
			b.WriteString("  " + s.DefString(d) + " = phi(" + names(s.PhiArgs(d), ", ") + ")\n")
		}
		for _, in := range blk.Instrs {
			b.WriteString("  " + in.String())
			if uds := s.UsesOf(in); len(uds) > 0 {
				b.WriteString(" ; uses " + names(uds, ","))
			}
			if ids := s.DefsOf(in); len(ids) > 0 {
				b.WriteString(" ; defs " + names(ids, ","))
			}
			b.WriteByte('\n')
		}
		if blk.Term != nil {
			b.WriteString("  " + blk.Term.String() + "\n")
		}
	}
	return b.String()
}
