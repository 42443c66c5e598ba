package icp

import (
	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
)

// This file holds the wavefront-scheduling substrate shared by the
// flow-sensitive methods. The PCG's forward edges form a DAG (a forward
// edge strictly increases the topological position), so the reachable
// procedures condense into topological levels; procedures of one level
// have no forward edges between them and can be analysed concurrently
// once every earlier level has completed. Back edges never constrain
// the schedule — they read the precomputed flow-insensitive fallback
// (one-pass method) or the previous round's results (iterative method),
// which is exactly what the serial traversals read, so the parallel
// schedule is semantics-preserving and deterministic for any worker
// count.

// forwardLevels condenses the PCG forward-edge DAG into topological
// levels for the forward traversals: a procedure's dependencies are its
// forward-edge callers.
func forwardLevels(cg *callgraph.Graph) [][]int {
	return driver.Levels(len(cg.Reachable), func(i int) []int {
		var deps []int
		for _, e := range cg.In[cg.Reachable[i]] {
			if !cg.IsBackEdge(e) {
				deps = append(deps, cg.Pos[e.Caller])
			}
		}
		return deps
	})
}

// reverseLevels condenses the same DAG for the reverse traversals
// (return constants): a procedure's dependencies are its forward-edge
// callees.
func reverseLevels(cg *callgraph.Graph) [][]int {
	return driver.Levels(len(cg.Reachable), func(i int) []int {
		var deps []int
		for _, e := range cg.Out[cg.Reachable[i]] {
			if !cg.IsBackEdge(e) {
				deps = append(deps, cg.Pos[e.Callee])
			}
		}
		return deps
	})
}

// callerSummary looks up the latest summary of a call edge's caller.
// The slice-of-slots representation (indexed by PCG position, each
// slot written only by its owning procedure's worker) is what makes
// the wavefront race-free without locks. A nil summary means the
// caller has not been analysed yet (iterative optimism).
type callerSummary func(q *sem.Proc) *incr.ProcSummary

// entryEnv builds p's entry environment by meeting the contributions of
// every incoming call edge: forward edges read the caller's completed
// summary via caller; back edges read the flow-insensitive fallback fi
// (nil when the PCG is acyclic — then no back edges exist). A call
// instruction's SiteIdx is its index in the caller's summary Sites.
// Returns the environment, whether any incoming site is executable, and
// how many back edges were consulted. Meet is commutative and
// associative, so the result is independent of edge order.
func entryEnv(ctx *Context, opts Options, p *sem.Proc, caller callerSummary, fi *fiSolution) (env lattice.Env[*sem.Var], live bool, backEdges int) {
	cg, mr := ctx.CG, ctx.MR
	globals := ctx.Prog.Sem.Globals
	if p == cg.Reachable[0] {
		// Block-data initial constants seed the entry of main.
		env = make(lattice.Env[*sem.Var])
		for g, v := range ctx.Prog.Sem.GlobalInit {
			env[g] = opts.filter(lattice.Const(v))
		}
		return env, true, 0
	}
	de := denseEntryEnv(ctx, p)
	nExec := 0
	for _, e := range cg.In[p] {
		if !cg.IsBackEdge(e) {
			// Forward edge: the caller has been analysed.
			sum := caller(e.Caller)
			if sum == nil || sum.Dead {
				continue // dead caller: contributes ⊤
			}
			sv := sum.Sites[e.Site.SiteIdx]
			if !sv.Reachable {
				continue // unreachable call site: contributes ⊤
			}
			nExec++
			for i, f := range p.Params {
				if i >= len(e.Site.Args) {
					break
				}
				de.MeetInto(f, opts.filter(sv.Args[i]))
			}
			// Sparse global candidates: the site stores values for
			// exactly Ref(p) — the globals the callee (transitively)
			// references — so the stored pairs are iterated directly.
			for j, gi := range sv.GlobIdx {
				de.MeetInto(globals[gi], opts.filter(sv.GlobVals[j]))
			}
		} else {
			// Back edge: use the flow-insensitive solution.
			backEdges++
			nExec++
			for i, f := range p.Params {
				de.MeetInto(f, fi.EdgeArg(e.Site, i))
			}
			for _, gi := range mr.RefGlobals(p) {
				de.MeetInto(globals[gi], fi.GlobalElem(globals[gi]))
			}
		}
	}
	if nExec == 0 {
		// Statically reachable but no executable call site: the
		// procedure is dynamically dead under this solution.
		return make(lattice.Env[*sem.Var]), false, backEdges
	}
	// A residual ⊤ would claim "never receives a value"; keep the
	// environment sound by demoting to ⊥.
	de.Each(func(v *sem.Var, e lattice.Elem) {
		if e.IsTop() {
			de.Set(v, lattice.BottomElem())
		}
	})
	return de.ToEnv(), true, backEdges
}

// denseEntryEnv allocates the slice-backed environment entry
// construction works in: a procedure's entry binds only its formals
// (slots 0..len(Params)-1, addressed by formal position) and globals
// (slots len(Params)+Index). Every other variable is outside the index
// and reads as ⊥, matching the map-backed Env's absent-key default.
// The global segment spills to the environment's overflow map past
// lattice.EnvSpillThreshold slots, so the per-procedure allocation
// stops scaling with the number of program globals (the entry binds
// only Ref(p) anyway).
func denseEntryEnv(ctx *Context, p *sem.Proc) *lattice.DenseEnv[*sem.Var] {
	np := len(p.Params)
	nglob := len(ctx.Prog.Sem.Globals)
	spill := lattice.EnvSpillThreshold
	if nglob < spill {
		spill = nglob
	}
	return lattice.NewDenseEnvSpill(np+nglob, np+spill, func(v *sem.Var) int {
		if v == nil {
			return -1
		}
		if v.IsGlobal() {
			return np + v.Index
		}
		if v.Kind == sem.KindFormal && v.Owner == p {
			return v.Index
		}
		return -1
	})
}
