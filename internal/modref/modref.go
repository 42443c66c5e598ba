// Package modref computes flow-insensitive interprocedural MOD and REF
// sets (Banning 1979; Cooper–Kennedy 1984): for every reachable
// procedure p, the set of formals of p and globals that executing p may
// modify (MOD) or reference (REF), including effects of everything p
// transitively calls. Reference-parameter may-aliases widen both sets.
//
// The results drive the rest of the pipeline:
//   - ir.CallInstr.MayDef is filled from MOD, making interprocedural
//     kills visible to the SSA-based intraprocedural propagator;
//   - the flow-insensitive ICP uses MOD to validate pass-through
//     formals and to discard modified globals;
//   - the flow-sensitive ICP uses REF to build the sparse per-call-site
//     global candidate lists (paper §3.2).
package modref

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"fsicp/internal/alias"
	"fsicp/internal/bitset"
	"fsicp/internal/callgraph"
	"fsicp/internal/ir"
	"fsicp/internal/sem"
)

// Set is a set of variables in one procedure's MOD/REF domain: the
// program's globals and the owner's formals. It is dense — one bit per
// global by Var.Index and one per formal by position — so membership is
// a word probe and the fixpoint unions sets a machine word at a time.
// Locals, temporaries, other procedures' formals and other programs'
// globals are never members.
type Set struct {
	owner   *sem.Proc
	vars    []*sem.Var // owner.Prog.Globals
	globals bitset.Set // bit g.Index per member global
	formals bitset.Set // bit f.Index per member formal of owner
}

// NewSet returns an empty set over owner's domain.
func NewSet(owner *sem.Proc) *Set {
	s := &Set{}
	s.init(owner, make(bitset.Set, setWords(owner)))
	return s
}

// setWords is the number of words a set over p's domain occupies.
func setWords(p *sem.Proc) int {
	return (len(p.Prog.Globals)+63)/64 + (len(p.Params)+63)/64
}

// init makes s an empty set over owner's domain backed by words, which
// must hold setWords(owner) zeroed words.
func (s *Set) init(owner *sem.Proc, words []uint64) {
	gw := (len(owner.Prog.Globals) + 63) / 64
	s.owner, s.vars = owner, owner.Prog.Globals
	s.globals, s.formals = words[:gw:gw], words[gw:]
}

// Has reports membership. A nil set is empty.
func (s *Set) Has(v *sem.Var) bool {
	if s == nil {
		return false
	}
	switch v.Kind {
	case sem.KindGlobal:
		return v.Index < len(s.vars) && s.vars[v.Index] == v && s.globals.Has(v.Index)
	case sem.KindFormal:
		return v.Owner == s.owner && s.formals.Has(v.Index)
	}
	return false
}

// Add inserts v, reporting whether it was new. A variable outside the
// domain is not inserted.
func (s *Set) Add(v *sem.Var) bool {
	switch v.Kind {
	case sem.KindGlobal:
		return v.Index < len(s.vars) && s.vars[v.Index] == v && s.globals.Add(v.Index)
	case sem.KindFormal:
		return v.Owner == s.owner && s.formals.Add(v.Index)
	}
	return false
}

// Len returns the number of members. A nil set is empty.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.globals.Count() + s.formals.Count()
}

// Each calls fn for every member: globals by index, then formals by
// position.
func (s *Set) Each(fn func(v *sem.Var)) {
	if s == nil {
		return
	}
	s.globals.Each(func(i int) { fn(s.vars[i]) })
	s.formals.Each(func(i int) { fn(s.owner.Params[i]) })
}

// Sorted returns the members in Each's order: globals by index, then
// formals by position.
func (s *Set) Sorted() []*sem.Var {
	out := make([]*sem.Var, 0, s.Len())
	s.Each(func(v *sem.Var) { out = append(out, v) })
	return out
}

// Info holds the MOD/REF solution.
type Info struct {
	// Mod[p] and Ref[p] are the interprocedural (transitive) sets.
	Mod map[*sem.Proc]*Set
	Ref map[*sem.Proc]*Set
	// DMod[p] and DRef[p] are the immediate (intraprocedural) sets.
	DMod map[*sem.Proc]*Set
	DRef map[*sem.Proc]*Set

	pos        map[*sem.Proc]int // reachable position, as callgraph.Graph.Pos
	refGlobals [][]int32         // by reachable position
}

// RefGlobals returns the declaration indices of the globals in REF(p),
// ascending — the paper's sparse per-call-site global candidate list
// for a call to p. Each procedure has its own slice; callers must not
// modify it. It is nil for an unreachable p.
func (i *Info) RefGlobals(p *sem.Proc) []int32 {
	k, ok := i.pos[p]
	if !ok {
		return nil
	}
	return i.refGlobals[k]
}

// Compute runs the MOD/REF fixpoint over the reachable PCG and then
// fills ir.CallInstr.MayDef for every reachable call site. Serial
// convenience wrapper over Begin / CollectProc / Finish.
func Compute(prog *ir.Program, cg *callgraph.Graph, al *alias.Info) *Info {
	b := Begin(prog, cg, al)
	for i := 0; i < b.NumProcs(); i++ {
		b.CollectProc(i)
	}
	return b.Finish()
}

// A Builder splits Compute so the per-procedure immediate MOD/REF
// collection — a pure walk over one function's IR — can be fanned
// across goroutines, while the interprocedural fixpoint stays a serial
// epilogue (it iterates shared per-procedure sets over call edges to
// convergence, which has no per-procedure decomposition).
type Builder struct {
	prog *ir.Program
	cg   *callgraph.Graph
	al   *alias.Info
	// The four set families, indexed by reachable position and backed
	// by one word array; CollectProc writes dmod[i] and dref[i].
	dmod, dref, mod, ref []Set
}

// Begin prepares the sharded MOD/REF computation.
func Begin(prog *ir.Program, cg *callgraph.Graph, al *alias.Info) *Builder {
	n := len(cg.Reachable)
	total := 0
	for _, p := range cg.Reachable {
		total += setWords(p)
	}
	words := make([]uint64, 4*total)
	sets := make([]Set, 4*n)
	for k := 0; k < 4; k++ {
		for i, p := range cg.Reachable {
			w := setWords(p)
			sets[k*n+i].init(p, words[:w:w])
			words = words[w:]
		}
	}
	return &Builder{
		prog: prog,
		cg:   cg,
		al:   al,
		dmod: sets[:n:n],
		dref: sets[n : 2*n : 2*n],
		mod:  sets[2*n : 3*n : 3*n],
		ref:  sets[3*n:],
	}
}

// NumProcs returns the number of reachable procedures to collect.
func (b *Builder) NumProcs() int { return len(b.cg.Reachable) }

// CollectProc collects the immediate MOD/REF of the i-th reachable
// procedure. Safe to call concurrently for distinct i.
func (b *Builder) CollectProc(i int) {
	immediate(b.prog.FuncOf[b.cg.Reachable[i]], &b.dmod[i], &b.dref[i])
}

// Finish installs the collected immediate sets and runs the serial
// interprocedural fixpoint plus the MayDef fill.
func (b *Builder) Finish() *Info {
	prog, cg, al := b.prog, b.cg, b.al
	n := len(cg.Reachable)
	info := &Info{
		Mod:  make(map[*sem.Proc]*Set, n),
		Ref:  make(map[*sem.Proc]*Set, n),
		DMod: make(map[*sem.Proc]*Set, n),
		DRef: make(map[*sem.Proc]*Set, n),
		pos:  cg.Pos,
	}
	for i, p := range cg.Reachable {
		copy(b.mod[i].globals, b.dmod[i].globals)
		copy(b.mod[i].formals, b.dmod[i].formals)
		copy(b.ref[i].globals, b.dref[i].globals)
		copy(b.ref[i].formals, b.dref[i].formals)
		info.DMod[p], info.DRef[p] = &b.dmod[i], &b.dref[i]
		info.Mod[p], info.Ref[p] = &b.mod[i], &b.ref[i]
	}

	// Worklist fixpoint over call edges, with alias closure folded in.
	// Effects flow callee→caller, so a procedure's incoming edges (as
	// callee) need reprocessing only after its own set grew; everything
	// starts dirty to seed the alias closure of the immediate sets. The
	// PCG may be cyclic; termination holds because sets only grow within
	// the finite domain formals(p) ∪ globals. Compared to the former
	// repeat-all-edges sweep this is the classic worklist form — on a
	// 10k-procedure corpus with deep call chains, the sweep reprocessed
	// every edge once per chain level, which turned the front end's
	// MOD/REF pass quadratic. Globals flow through an edge as a word-wise
	// OR of the callee's set into the caller's; only formal bits need
	// mapping, through the site's by-ref actuals.
	intoCaller := make([][]int32, n) // callee position → edge indices
	callerPos := make([]int32, len(cg.Edges))
	for ei, e := range cg.Edges {
		ci := cg.Pos[e.Callee]
		intoCaller[ci] = append(intoCaller[ci], int32(ei))
		callerPos[ei] = int32(cg.Pos[e.Caller])
	}
	queued := make([]bool, n)
	queue := make([]int, 0, n)
	enqueue := func(i int) {
		if !queued[i] {
			queued[i] = true
			queue = append(queue, i)
		}
	}
	for i := range cg.Reachable {
		enqueue(i)
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queued[i] = false
		if p := cg.Reachable[i]; al != nil && al.HasAliases(p) {
			closeUnderAliases(&b.mod[i], al, p)
			closeUnderAliases(&b.ref[i], al, p)
		}
		for _, ei := range intoCaller[i] {
			ci := int(callerPos[ei])
			site := cg.Edges[ei].Site
			changed := propagate(&b.mod[ci], &b.mod[i], site)
			if propagate(&b.ref[ci], &b.ref[i], site) {
				changed = true
			}
			if changed {
				enqueue(ci)
			}
		}
	}

	fillMayDef(prog, cg, al, info)
	registerGlobals(prog, cg, b.mod, b.ref)
	info.refGlobals = make([][]int32, n)
	for i := range b.ref {
		info.refGlobals[i] = globalIndices(b.ref[i].globals)
	}
	return info
}

// globalIndices lists the set bits of s ascending, in a slice of its
// own (nil when s is empty): cached summaries alias these lists, so
// they must not pin a program-wide backing array.
func globalIndices(s bitset.Set) []int32 {
	c := s.Count()
	if c == 0 {
		return nil
	}
	out := make([]int32, 0, c)
	s.Each(func(i int) { out = append(out, int32(i)) })
	return out
}

// registerGlobals adds to every reachable procedure's tracked variables
// the globals in its MOD∪REF and in its calls' MayDef, by global index.
// Together with the globals the IR builder registered (those the body
// names) these are all the globals the procedure's SSA must see: the
// entry environment binds only REF, and only MOD and MayDef define.
func registerGlobals(prog *ir.Program, cg *callgraph.Graph, mod, ref []Set) {
	globals := prog.Sem.Globals
	union := bitset.New(len(globals))
	var gs []*sem.Var
	for i, p := range cg.Reachable {
		copy(union, mod[i].globals)
		union.Union(ref[i].globals)
		fn := prog.FuncOf[p]
		for _, call := range fn.Calls {
			for _, v := range call.MayDef {
				if v.IsGlobal() {
					union.Add(v.Index)
				}
			}
		}
		gs = gs[:0]
		union.Each(func(g int) { gs = append(gs, globals[g]) })
		fn.RegisterGlobals(gs)
	}
}

// immediate collects the direct MOD/REF of one procedure from its IR
// into the empty sets dmod and dref. Call-site argument uses are
// excluded here: by-value actuals are temporaries whose computation
// already referenced the underlying variables, and by-ref actuals only
// count as referenced/modified when the callee's formal is (handled by
// the fixpoint).
func immediate(fn *ir.Func, dmod, dref *Set) {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if call, ok := in.(*ir.CallInstr); ok {
				if call.Dst != nil {
					dmod.Add(call.Dst)
				}
				continue
			}
			for _, v := range in.Defs() {
				dmod.Add(v)
			}
			for _, v := range in.Uses() {
				dref.Add(v)
			}
		}
		if b.Term != nil {
			for _, v := range b.Term.Uses() {
				dref.Add(v)
			}
		}
	}
}

// propagate maps callee effects back through one call edge: globals
// carry over directly; formal effects carry to by-ref actuals that are
// formals or globals of the caller.
func propagate(caller, callee *Set, call *ir.CallInstr) bool {
	changed := caller.globals.Union(callee.globals)
	callee.formals.Each(func(k int) {
		if k < len(call.ByRef) {
			if a := call.ByRef[k]; a != nil && caller.Add(a) {
				changed = true
			}
		}
	})
	return changed
}

func closeUnderAliases(s *Set, al *alias.Info, p *sem.Proc) {
	queue := s.Sorted()
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range al.Partners(p, v) {
			if s.Add(w) {
				queue = append(queue, w)
			}
		}
	}
}

// fillMayDef records, on every reachable call instruction, the caller
// variables the call may modify: by-ref actuals bound to modified
// formals, modified globals, and the alias partners of both.
func fillMayDef(prog *ir.Program, cg *callgraph.Graph, al *alias.Info, info *Info) {
	// stamp[g.Index] == ei+1 marks global g as listed for edge ei, so
	// globals need no per-edge set; the few non-globals (by-ref actuals
	// and their partners) are checked against the list itself.
	stamp := make([]int32, len(prog.Sem.Globals))
	for ei, e := range cg.Edges {
		call, callee, caller := e.Site, e.Callee, e.Caller
		mod := info.Mod[callee]
		mark := int32(ei + 1)
		var out []*sem.Var
		add := func(v *sem.Var) {
			if v == nil || v == call.Dst {
				return
			}
			if v.IsGlobal() {
				if stamp[v.Index] == mark {
					return
				}
				stamp[v.Index] = mark
			} else if slices.Contains(out, v) {
				return
			}
			out = append(out, v)
		}
		for i, a := range call.ByRef {
			if a == nil || i >= len(callee.Params) {
				continue
			}
			if mod.formals.Has(i) {
				add(a)
				if al != nil {
					for _, w := range al.Partners(caller, a) {
						add(w)
					}
				}
			}
		}
		mod.globals.Each(func(g int) {
			v := mod.vars[g]
			add(v)
			if al != nil {
				for _, w := range al.Partners(caller, v) {
					add(w)
				}
			}
		})
		sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
		call.MayDef = out
	}
}

// Dump renders MOD/REF for debugging and golden tests.
func (i *Info) Dump(cg *callgraph.Graph) string {
	var b strings.Builder
	for _, p := range cg.Reachable {
		fmt.Fprintf(&b, "%s: MOD={%s} REF={%s}\n", p.Name, names(i.Mod[p]), names(i.Ref[p]))
	}
	return b.String()
}

func names(s *Set) string {
	vs := s.Sorted()
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.Name
	}
	return strings.Join(parts, ",")
}
