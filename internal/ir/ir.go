// Package ir defines the per-procedure control-flow-graph intermediate
// representation consumed by the analyses.
//
// Instructions are flattened three-address operations over sem.Var
// operands (compiler temporaries carry intermediate expression values).
// Each basic block ends in exactly one terminator (Jump, If, or Ret).
// Call instructions retain the original argument syntax trees so that
// jump-function baselines and the paper's IMM metric can inspect the
// argument shape.
//
// The IR is deliberately not in SSA form: SSA construction (package ssa)
// happens per procedure after interprocedural MOD/REF is known, so that
// calls can be modelled as definitions of the by-reference actuals and
// globals they may modify — exactly the ordering of the paper's
// compilation model (its Figure 2).
package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"fsicp/internal/ast"
	"fsicp/internal/sem"
	"fsicp/internal/token"
	"fsicp/internal/val"
)

// Program is the whole-program IR.
type Program struct {
	Sem    *sem.Program
	Funcs  []*Func // parallel to Sem.Procs
	FuncOf map[*sem.Proc]*Func

	// CallSites is every call instruction in the program, in a stable
	// order; CallInstr.ID indexes this slice.
	CallSites []*CallInstr

	// AliasClobbersDone records that alias.InsertClobbers already ran,
	// so re-preparing a transformed program does not duplicate
	// clobbers.
	AliasClobbersDone bool
}

// Func is the CFG of one procedure.
type Func struct {
	Proc   *sem.Proc
	Blocks []*Block // Blocks[0] is the entry block
	Calls  []*CallInstr

	// AllVars lists every variable the analyses track in this
	// procedure: its formals, locals and temporaries, and the globals
	// in its MOD∪REF — plus any other global its body or a call's
	// MayDef names. The IR builder registers the procedure's own
	// variables and the globals its body names; modref registers the
	// rest once MOD/REF is known. A global outside that set is ⊥ at the
	// procedure's entry (entry environments bind only REF) and never
	// defined here, so tracking it could not change a fact.
	AllVars []*sem.Var
	// ownOrd maps an owned variable's slot (sem.Var.Slot) to 1+its
	// position in AllVars; 0 means "not tracked here".
	ownOrd []int32
	// globals lists the tracked globals sorted by global index, and
	// globalOrd[k] is globals[k]'s position in AllVars. Both are sized
	// by the procedure's MOD∪REF, not by the program.
	globals   []*sem.Var
	globalOrd []int32

	// NumInstrs is the instruction count of the last NumberInstrs pass
	// (0 before the first numbering).
	NumInstrs int

	// fp caches a content fingerprint of this function (see
	// Fingerprint). IR is immutable between the end of the load
	// pipeline — including the clobber-annotation pass — and the first
	// transformation pass, so a stored value stays valid until a
	// mutation pass resets it (ResetFingerprint, called for every
	// function by RebuildCallLists).
	fp atomic.Pointer[string]
}

// Fingerprint returns the function's cached content fingerprint,
// computing it with fn on first use. Safe for concurrent callers: the
// computation is deterministic, so racing stores write equal values.
func (f *Func) Fingerprint(fn func(*Func) string) string {
	if p := f.fp.Load(); p != nil {
		return *p
	}
	s := fn(f)
	f.fp.Store(&s)
	return s
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a new empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{Index: len(f.Blocks), Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Block is one basic block.
type Block struct {
	Index  int
	Func   *Func
	Instrs []Instr
	Term   Terminator
	Preds  []*Block
	Succs  []*Block
}

func (b *Block) String() string { return "b" + strconv.Itoa(b.Index) }

// addEdge records a CFG edge.
func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// SetTerm installs the terminator and wires CFG edges.
func (b *Block) SetTerm(t Terminator) {
	if b.Term != nil {
		panic("ir: block already terminated")
	}
	b.Term = t
	switch t := t.(type) {
	case *Jump:
		addEdge(b, t.Target)
	case *If:
		addEdge(b, t.Then)
		addEdge(b, t.Else)
	case *Ret:
	}
}

// Instr is a non-terminator instruction.
type Instr interface {
	// Defs returns the variables this instruction certainly or possibly
	// defines (call defs are filled in by the modref phase).
	Defs() []*sem.Var
	// Uses returns the variable operands read by this instruction.
	Uses() []*sem.Var
	String() string
	// InstrID returns the instruction's dense per-function ID assigned
	// by Func.NumberInstrs, or -1 if the instruction has not been
	// numbered (e.g. it was created after the last numbering pass).
	InstrID() int
	setInstrID(int)
}

// instrNode carries the dense per-function instruction ID every
// concrete instruction embeds. The stored value is id+1 so the zero
// value decodes as the -1 "unnumbered" sentinel — instructions grafted
// by transformation passes stay distinguishable from instruction 0.
type instrNode struct{ id int32 }

func (n *instrNode) InstrID() int     { return int(n.id) - 1 }
func (n *instrNode) setInstrID(i int) { n.id = int32(i) + 1 }

// NumberInstrs assigns dense per-function instruction IDs in block
// order (the deterministic CFG order analyses iterate in) and records
// the count in NumInstrs, so that def/use tables can be slices indexed
// by instruction ID instead of pointer-keyed maps. The IR builder
// numbers every function it emits and RebuildCallLists renumbers after
// mutation passes, so analyses see pre-numbered functions and never
// write to shared IR — Program.Analyze stays safe to call from many
// goroutines at once. Renumbering is idempotent and cheap.
func (f *Func) NumberInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.setInstrID(n)
			n++
		}
	}
	f.NumInstrs = n
	return n
}

// Numbered reports whether the function's instruction numbering is
// current: every instruction carries its block-order ID and NumInstrs
// matches the count. It is read-only, so concurrent analyses may probe
// a shared program; a pass that grafts or removes instructions must
// renumber (RebuildCallLists does) before the program is shared again.
func (f *Func) Numbered() bool {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.InstrID() != n {
				return false
			}
			n++
		}
	}
	return f.NumInstrs == n
}

// ConstInstr assigns a literal constant: dst = <value>.
type ConstInstr struct {
	instrNode
	Dst *sem.Var
	Val val.Value
}

// CopyInstr copies one variable: dst = src.
type CopyInstr struct {
	instrNode
	Dst *sem.Var
	Src *sem.Var
}

// UnaryInstr applies a unary operator: dst = op x.
type UnaryInstr struct {
	instrNode
	Dst *sem.Var
	Op  token.Kind
	X   *sem.Var
}

// BinaryInstr applies a binary operator: dst = x op y.
type BinaryInstr struct {
	instrNode
	Dst  *sem.Var
	Op   token.Kind
	X, Y *sem.Var
}

// ReadInstr assigns an external input value: dst = read().
type ReadInstr struct {
	instrNode
	Dst *sem.Var
}

// PrintArg is one print operand: either a variable or a string literal.
type PrintArg struct {
	Var *sem.Var // nil for string arguments
	Str string
}

// PrintInstr writes values to the program output.
type PrintInstr struct {
	instrNode
	Args []PrintArg
}

// CallInstr invokes a procedure or function.
type CallInstr struct {
	instrNode
	ID      int       // global call-site index within the Program
	SiteIdx int       // position within the owning Func's Calls list
	Callee  *sem.Proc // resolved callee
	Block   *Block

	// Args holds the flattened value of each actual (always a variable
	// after IR construction; expressions are computed into temps).
	Args []*sem.Var
	// ByRef[i] is non-nil iff the i-th actual is an lvalue passed by
	// reference (the variable itself); expression actuals pass a
	// temporary and any callee modification is lost, Fortran-style.
	ByRef []*sem.Var
	// ArgSyntax preserves the source expression of each actual for jump
	// functions and the IMM metric.
	ArgSyntax []ast.Expr

	// Dst receives the function result (nil for subroutine calls).
	Dst *sem.Var

	// MayDef is filled by the modref phase: every variable in the
	// caller's frame this call may modify (by-ref actuals of modified
	// formals, modified globals, and their aliases).
	MayDef []*sem.Var
}

// ClobberInstr marks variables as possibly redefined with unknown
// values. Inserted for may-alias side effects of assignments.
type ClobberInstr struct {
	instrNode
	Vars []*sem.Var
	// Why documents the clobber for IR dumps.
	Why string
}

// The fixed-arity Uses and Defs methods allocate through AppendUses and
// AppendDefs, which hold each kind's one operand and definition list.
// CallInstr.Uses and ClobberInstr.Defs return the instruction's own
// slice.
func (i *ConstInstr) Defs() []*sem.Var   { return AppendDefs(nil, i) }
func (i *CopyInstr) Defs() []*sem.Var    { return AppendDefs(nil, i) }
func (i *UnaryInstr) Defs() []*sem.Var   { return AppendDefs(nil, i) }
func (i *BinaryInstr) Defs() []*sem.Var  { return AppendDefs(nil, i) }
func (i *ReadInstr) Defs() []*sem.Var    { return AppendDefs(nil, i) }
func (i *PrintInstr) Defs() []*sem.Var   { return nil }
func (i *CallInstr) Defs() []*sem.Var    { return AppendDefs(nil, i) }
func (i *ClobberInstr) Defs() []*sem.Var { return i.Vars }

func (i *ConstInstr) Uses() []*sem.Var   { return nil }
func (i *CopyInstr) Uses() []*sem.Var    { return AppendUses(nil, i) }
func (i *UnaryInstr) Uses() []*sem.Var   { return AppendUses(nil, i) }
func (i *BinaryInstr) Uses() []*sem.Var  { return AppendUses(nil, i) }
func (i *ReadInstr) Uses() []*sem.Var    { return nil }
func (i *PrintInstr) Uses() []*sem.Var   { return AppendUses(nil, i) }
func (i *CallInstr) Uses() []*sem.Var    { return i.Args }
func (i *ClobberInstr) Uses() []*sem.Var { return nil }

// AppendUses appends in.Uses() to dst without allocating a slice of its
// own; loops that visit every operand of a function (SSA construction)
// reuse one buffer through it.
func AppendUses(dst []*sem.Var, in Instr) []*sem.Var {
	switch in := in.(type) {
	case *CopyInstr:
		return append(dst, in.Src)
	case *UnaryInstr:
		return append(dst, in.X)
	case *BinaryInstr:
		return append(dst, in.X, in.Y)
	case *PrintInstr:
		for _, a := range in.Args {
			if a.Var != nil {
				dst = append(dst, a.Var)
			}
		}
		return dst
	}
	return append(dst, in.Uses()...)
}

// AppendDefs appends in.Defs() to dst; see AppendUses.
func AppendDefs(dst []*sem.Var, in Instr) []*sem.Var {
	switch in := in.(type) {
	case *ConstInstr:
		return append(dst, in.Dst)
	case *CopyInstr:
		return append(dst, in.Dst)
	case *UnaryInstr:
		return append(dst, in.Dst)
	case *BinaryInstr:
		return append(dst, in.Dst)
	case *ReadInstr:
		return append(dst, in.Dst)
	case *CallInstr:
		if in.Dst != nil {
			dst = append(dst, in.Dst)
		}
		return append(dst, in.MayDef...)
	}
	return append(dst, in.Defs()...)
}

func (i *ConstInstr) String() string { return i.Dst.String() + " = const " + i.Val.String() }
func (i *CopyInstr) String() string  { return i.Dst.String() + " = " + i.Src.String() }
func (i *UnaryInstr) String() string {
	return i.Dst.String() + " = " + i.Op.String() + i.X.String()
}
func (i *BinaryInstr) String() string {
	return i.Dst.String() + " = " + i.X.String() + " " + i.Op.String() + " " + i.Y.String()
}
func (i *ReadInstr) String() string { return i.Dst.String() + " = read()" }
func (i *PrintInstr) String() string {
	parts := make([]string, len(i.Args))
	for k, a := range i.Args {
		if a.Var != nil {
			parts[k] = a.Var.String()
		} else {
			parts[k] = strconv.Quote(a.Str)
		}
	}
	return "print " + strings.Join(parts, ", ")
}
func (i *CallInstr) String() string {
	args := make([]string, len(i.Args))
	for k, a := range i.Args {
		args[k] = a.String()
	}
	s := "call " + i.Callee.Name + "(" + strings.Join(args, ", ") + ")"
	if i.Dst != nil {
		s = i.Dst.String() + " = " + s
	}
	if len(i.MayDef) > 0 {
		defs := make([]string, len(i.MayDef))
		for k, v := range i.MayDef {
			defs[k] = v.String()
		}
		s += " [maydef " + strings.Join(defs, ",") + "]"
	}
	return s
}
func (i *ClobberInstr) String() string {
	vars := make([]string, len(i.Vars))
	for k, v := range i.Vars {
		vars[k] = v.String()
	}
	return "clobber " + strings.Join(vars, ", ") + " (" + i.Why + ")"
}

// Terminator ends a block.
type Terminator interface {
	Uses() []*sem.Var
	String() string
	termNode()
}

// Jump transfers control unconditionally.
type Jump struct{ Target *Block }

// If branches on a bool variable.
type If struct {
	Cond *sem.Var
	Then *Block
	Else *Block
}

// Ret returns from the procedure, with Val set iff it is a function
// return carrying a value.
type Ret struct{ Val *sem.Var }

func (*Jump) termNode() {}
func (*If) termNode()   {}
func (*Ret) termNode()  {}

func (t *Jump) Uses() []*sem.Var { return nil }
func (t *If) Uses() []*sem.Var   { return AppendTermUses(nil, t) }
func (t *Ret) Uses() []*sem.Var  { return AppendTermUses(nil, t) }

// AppendTermUses appends t.Uses() to dst; see AppendUses.
func AppendTermUses(dst []*sem.Var, t Terminator) []*sem.Var {
	switch t := t.(type) {
	case *If:
		return append(dst, t.Cond)
	case *Ret:
		if t.Val != nil {
			dst = append(dst, t.Val)
		}
		return dst
	}
	return append(dst, t.Uses()...)
}

func (t *Jump) String() string { return "jump " + t.Target.String() }
func (t *If) String() string {
	return "if " + t.Cond.String() + " then " + t.Then.String() + " else " + t.Else.String()
}
func (t *Ret) String() string {
	if t.Val != nil {
		return "ret " + t.Val.String()
	}
	return "ret"
}

// Dump renders the function CFG for debugging and golden tests.
func (f *Func) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s", f.Proc.Name)
	params := make([]string, len(f.Proc.Params))
	for i, p := range f.Proc.Params {
		params[i] = p.Name
	}
	fmt.Fprintf(&b, "(%s):\n", strings.Join(params, ", "))
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:", blk)
		if len(blk.Preds) > 0 {
			preds := make([]string, len(blk.Preds))
			for i, p := range blk.Preds {
				preds[i] = p.String()
			}
			fmt.Fprintf(&b, " ; preds %s", strings.Join(preds, ","))
		}
		b.WriteByte('\n')
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", in)
		}
		if blk.Term != nil {
			fmt.Fprintf(&b, "  %s\n", blk.Term)
		} else {
			b.WriteString("  <unterminated>\n")
		}
	}
	return b.String()
}

// Dump renders every function.
func (p *Program) Dump() string {
	var b strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.Dump())
	}
	return b.String()
}

// ReachableBlocks returns the blocks reachable from entry, in reverse
// post-order (entry first). Unreachable blocks (e.g. code after return)
// are excluded, which every dominator/SSA client relies on.
func (f *Func) ReachableBlocks() []*Block {
	seen := make([]bool, len(f.Blocks))
	var order []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(f.Entry())
	// reverse
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// RebuildCFG recomputes preds/succs from terminators and removes blocks
// unreachable from the entry, reindexing the rest. Returns the number
// of removed blocks. Transformation passes (folding, inlining) call it
// after rewriting terminators or grafting blocks.
func RebuildCFG(fn *Func) int {
	for _, b := range fn.Blocks {
		b.Preds = nil
		b.Succs = nil
	}
	for _, b := range fn.Blocks {
		switch t := b.Term.(type) {
		case *Jump:
			addEdge(b, t.Target)
		case *If:
			addEdge(b, t.Then)
			addEdge(b, t.Else)
		}
	}
	seen := make(map[*Block]bool)
	var order []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		order = append(order, b)
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
	}
	dfs(fn.Blocks[0])
	removed := len(fn.Blocks) - len(order)
	for _, b := range order {
		kept := b.Preds[:0]
		for _, p := range b.Preds {
			if seen[p] {
				kept = append(kept, p)
			}
		}
		b.Preds = kept
	}
	fn.Blocks = order
	for i, b := range fn.Blocks {
		b.Index = i
	}
	return removed
}

// RebuildCallLists refreshes per-function call lists, instruction
// numbering, and the program's global call-site index after blocks
// were added or removed. It also drops every function's cached content
// fingerprint: all mutation passes funnel through here, so this is
// where incremental sessions learn that rewritten procedures changed.
func RebuildCallLists(prog *Program) {
	prog.CallSites = prog.CallSites[:0]
	for _, fn := range prog.Funcs {
		fn.ResetFingerprint()
		fn.NumberInstrs()
		fn.Calls = fn.Calls[:0]
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if call, ok := in.(*CallInstr); ok {
					call.ID = len(prog.CallSites)
					call.SiteIdx = len(fn.Calls)
					call.Block = b
					prog.CallSites = append(prog.CallSites, call)
					fn.Calls = append(fn.Calls, call)
				}
			}
		}
	}
}

// RegisterVar adds a variable to the function's tracked set if absent.
// v must be a global or a variable of f's own procedure.
func (f *Func) RegisterVar(v *sem.Var) {
	if v.IsGlobal() {
		f.RegisterGlobals([]*sem.Var{v})
		return
	}
	if v.Owner != f.Proc {
		panic("ir: variable " + v.String() + " does not belong to " + f.Proc.Name)
	}
	if v.Slot < len(f.ownOrd) && f.ownOrd[v.Slot] != 0 {
		return
	}
	if v.Slot >= len(f.ownOrd) {
		f.ownOrd = append(f.ownOrd, make([]int32, max(v.Slot+1, f.Proc.NumSlots())-len(f.ownOrd))...)
	}
	f.ownOrd[v.Slot] = int32(len(f.AllVars)) + 1
	f.AllVars = append(f.AllVars, v)
}

// VarOrd returns the variable's position in AllVars, or -1 when the
// function does not track it. Owned variables cost one slice index by
// slot; globals a binary search of the procedure's few tracked globals.
func (f *Func) VarOrd(v *sem.Var) int {
	if v == nil {
		return -1
	}
	if v.IsGlobal() {
		if k := f.GlobalPos(v); k >= 0 {
			return int(f.globalOrd[k])
		}
		return -1
	}
	if v.Owner != f.Proc || v.Slot >= len(f.ownOrd) {
		return -1
	}
	return int(f.ownOrd[v.Slot]) - 1
}

// RegisterGlobals adds every global of gs — sorted by global index,
// without repeats — that the function does not track yet, appending
// them to AllVars in that order. One merge pass rebuilds the
// tracked-global index, so registering a procedure's MOD∪REF costs a
// fixed number of allocations rather than one per global.
func (f *Func) RegisterGlobals(gs []*sem.Var) {
	merged := make([]*sem.Var, 0, len(f.globals)+len(gs))
	ords := make([]int32, 0, cap(merged))
	i := 0
	for _, g := range gs {
		for i < len(f.globals) && f.globals[i].Index < g.Index {
			merged, ords = append(merged, f.globals[i]), append(ords, f.globalOrd[i])
			i++
		}
		if i < len(f.globals) && f.globals[i] == g {
			continue // tracked already; copied by the next merge step
		}
		merged, ords = append(merged, g), append(ords, int32(len(f.AllVars)))
		f.AllVars = append(f.AllVars, g)
	}
	f.globals = append(merged, f.globals[i:]...)
	f.globalOrd = append(ords, f.globalOrd[i:]...)
}

// Globals returns the tracked globals sorted by global index. The
// slice is shared; callers must not modify it.
func (f *Func) Globals() []*sem.Var { return f.globals }

// GlobalPos returns g's position in Globals, or -1 when g is not
// tracked.
func (f *Func) GlobalPos(g *sem.Var) int {
	k, ok := slices.BinarySearchFunc(f.globals, g.Index, func(x *sem.Var, i int) int { return x.Index - i })
	if !ok {
		return -1
	}
	return k
}

// CloneInstr deep-copies one instruction, mapping every variable
// operand through mapVar. Used by transformation passes that graft code
// between procedures (inlining, cloning).
func CloneInstr(in Instr, mapVar func(*sem.Var) *sem.Var) Instr {
	switch in := in.(type) {
	case *ConstInstr:
		return &ConstInstr{Dst: mapVar(in.Dst), Val: in.Val}
	case *CopyInstr:
		return &CopyInstr{Dst: mapVar(in.Dst), Src: mapVar(in.Src)}
	case *UnaryInstr:
		return &UnaryInstr{Dst: mapVar(in.Dst), Op: in.Op, X: mapVar(in.X)}
	case *BinaryInstr:
		return &BinaryInstr{Dst: mapVar(in.Dst), Op: in.Op, X: mapVar(in.X), Y: mapVar(in.Y)}
	case *ReadInstr:
		return &ReadInstr{Dst: mapVar(in.Dst)}
	case *PrintInstr:
		args := make([]PrintArg, len(in.Args))
		for i, a := range in.Args {
			args[i] = PrintArg{Var: mapVar(a.Var), Str: a.Str}
		}
		return &PrintInstr{Args: args}
	case *ClobberInstr:
		vars := make([]*sem.Var, len(in.Vars))
		for i, v := range in.Vars {
			vars[i] = mapVar(v)
		}
		return &ClobberInstr{Vars: vars, Why: in.Why}
	case *CallInstr:
		nc := &CallInstr{Callee: in.Callee, ArgSyntax: in.ArgSyntax, Dst: mapVar(in.Dst)}
		nc.Args = make([]*sem.Var, len(in.Args))
		for i, a := range in.Args {
			nc.Args[i] = mapVar(a)
		}
		nc.ByRef = make([]*sem.Var, len(in.ByRef))
		for i, a := range in.ByRef {
			nc.ByRef[i] = mapVar(a)
		}
		nc.MayDef = make([]*sem.Var, len(in.MayDef))
		for i, v := range in.MayDef {
			nc.MayDef[i] = mapVar(v)
		}
		return nc
	}
	panic(fmt.Sprintf("ir: cannot clone instruction %T", in))
}
