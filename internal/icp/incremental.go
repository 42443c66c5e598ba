package icp

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"fsicp/internal/driver"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/scc"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
	"fsicp/internal/val"
)

// This file adapts the incremental engine (internal/incr) to the ICP
// pipeline. The flow-sensitive methods now carry their per-procedure
// results as portable summaries (incr.ProcSummary) rather than live
// scc.Result objects; downstream consumers (entry environments,
// call-site merges, the public facade) read summaries, so a result
// reused from a previous run is indistinguishable from a freshly
// computed one.

// incrState is one run's view of the engine: the plan (clean set +
// value cache), the fingerprints computed for this program, and the
// inputs (kept for the commit).
type incrState struct {
	plan   *incr.Plan
	fps    []string
	inputs incr.RunInputs
	eng    *incr.Engine
	// stats0 snapshots the engine's cumulative store counters at Begin,
	// so storeDelta can report this run's share.
	stats0 incr.StoreStats
}

// beginIncr fingerprints the program and opens a plan against the
// engine. Returns nil when no engine is attached. structural selects
// wholesale reuse of clean procedures (the one-pass method); the
// iterative method passes false and uses only the value cache.
func beginIncr(ctx *Context, opts Options, fi *fiSolution, structural bool) *incrState {
	if opts.Incr == nil {
		return nil
	}
	cg, mr := ctx.CG, ctx.MR
	n := len(cg.Reachable)
	st := &incrState{fps: make([]string, n), eng: opts.Incr, stats0: opts.Incr.Stats()}
	sccs := make([][]int, len(cg.SCCs))
	for k, members := range cg.SCCs {
		pos := make([]int, len(members))
		for j, q := range members {
			pos[j] = cg.Pos[q]
		}
		sccs[k] = pos
	}
	in := incr.RunInputs{
		ConfigKey:  configKey(opts),
		ProgramKey: incr.GlobalsFingerprint(ctx.Prog.Sem.Globals, ctx.Prog.Sem.GlobalInit),
		Procs:      make([]incr.ProcInput, n),
		SCCs:       sccs,
		Structural: structural,
	}
	// Fingerprints memoise on the Func: within a Session the IR program
	// is reused wholesale across analyses (and across the per-config
	// engines), so each program version is hashed at most once.
	driver.Parallel(n, driver.Workers(opts.Workers), func(i int) {
		p := cg.Reachable[i]
		st.fps[i] = ctx.Prog.FuncOf[p].Fingerprint(func(fn *ir.Func) string {
			return incr.ProcFingerprint(p, fn)
		})
	})
	gbn := globalsByName(ctx)
	for i, p := range cg.Reachable {
		var refNames []string
		for _, gi := range mr.RefGlobals(p) {
			refNames = append(refNames, ctx.Prog.Sem.Globals[gi].Name)
		}
		pi := incr.ProcInput{
			Name:   p.Name,
			FP:     st.fps[i],
			RefKey: incr.RefKey(refNames) + "\x01" + backEdgeKey(ctx, fi, p, refNames, gbn),
		}
		for _, e := range cg.Out[p] {
			if !cg.IsBackEdge(e) {
				pi.Callees = append(pi.Callees, cg.Pos[e.Callee])
			}
		}
		for _, e := range cg.In[p] {
			if cg.IsBackEdge(e) {
				pi.BackEdgeIn = true
				break
			}
		}
		in.Procs[i] = pi
	}
	st.inputs = in
	st.plan = opts.Incr.Begin(in)
	return st
}

// storeDelta reports the engine's store activity since beginIncr: this
// run's cache traffic.
func (st *incrState) storeDelta() incr.StoreStats {
	return st.eng.Stats().Sub(st.stats0)
}

// fillStoreStats copies a run's persistent-layer counters into the
// pass record and the result, and extends the pass notes, when a disk
// layer saw any traffic. Memory-only engines leave everything zero.
func fillStoreStats(ps *driver.PassStats, res *Result, ist *incrState) {
	ds := ist.storeDelta()
	res.Store = ds
	if ds.DiskHits+ds.DiskMisses+ds.Corrupt == 0 {
		return
	}
	// The driver's stats table renders a disk=hits/lookups note from the
	// structured fields; only the rarer counters go into Notes directly.
	ps.DiskHits = int(ds.DiskHits)
	ps.DiskMisses = int(ds.DiskMisses)
	ps.Evicted = int(ds.Evictions)
	ps.Corrupt = int(ds.Corrupt)
	if ds.Corrupt > 0 {
		ps.Notes = fmt.Sprintf("%s corrupt=%d", ps.Notes, ds.Corrupt)
	}
	if ds.Evictions > 0 {
		ps.Notes = fmt.Sprintf("%s evicted=%d", ps.Notes, ds.Evictions)
	}
}

// backEdgeKey renders everything p's entry environment takes from the
// flow-insensitive fallback: per incoming back edge the caller, the
// site's position among the caller's calls, and each formal's FI
// contribution; plus — when any back edge exists — the FI value of
// each referenced global. Any change here (including a back edge
// appearing or disappearing) must dirty p even though p's own
// fingerprint is unchanged.
func backEdgeKey(ctx *Context, fi *fiSolution, p *sem.Proc, refNames []string, gbn map[string]*sem.Var) string {
	cg := ctx.CG
	var b strings.Builder
	any := false
	for _, e := range cg.In[p] {
		if !cg.IsBackEdge(e) {
			continue
		}
		any = true
		b.WriteString(e.Caller.Name)
		b.WriteByte('@')
		b.WriteString(strconv.Itoa(e.Site.SiteIdx))
		for i := range p.Params {
			b.WriteByte(':')
			if fi != nil {
				b.WriteString(incr.ElemKey(fi.EdgeArg(e.Site, i)))
			}
		}
		b.WriteByte(0)
	}
	if any && fi != nil {
		for _, name := range refNames {
			b.WriteString(incr.ElemKey(fi.GlobalElem(gbn[name])))
			b.WriteByte(0)
		}
	}
	return b.String()
}

// globalsByName indexes the program globals by source name (names are
// unique among globals).
func globalsByName(ctx *Context) map[string]*sem.Var {
	m := make(map[string]*sem.Var, len(ctx.Prog.Sem.Globals))
	for _, g := range ctx.Prog.Sem.Globals {
		m[g.Name] = g
	}
	return m
}

// configKey identifies the analysis configuration; cached results are
// never shared across configurations. The fuel budget and the active
// fault-injection spec are part of the configuration: a run bounded
// differently degrades different procedures, so its snapshots and
// cached values must not leak into runs under other bounds (the
// degraded summaries themselves are additionally never stored at all).
func configKey(opts Options) string {
	return strconv.Itoa(int(opts.Method)) +
		"f" + strconv.FormatBool(opts.PropagateFloats) +
		"r" + strconv.FormatBool(opts.ReturnConstants) +
		"R" + strconv.FormatBool(opts.ReturnsRefresh) +
		"F" + strconv.Itoa(opts.Fuel) +
		"k" + opts.FaultKey
}

// commit installs the run's FS-stage summaries as the engine's
// snapshot, the baseline the next run diffs against. A degraded
// summary is committed as nil — the engine treats a nil summary as
// dirty, so the procedure is fully re-analysed on the next run instead
// of its FI fallback being reused as a full-precision result.
func (st *incrState) commit(sums []*incr.ProcSummary) {
	procs := make(map[string]incr.ProcState, len(sums))
	for i, pi := range st.inputs.Procs {
		s := sums[i]
		if s != nil && s.Degraded {
			s = nil
		}
		procs[pi.Name] = incr.ProcState{FP: pi.FP, RefKey: pi.RefKey, Summary: s}
	}
	st.plan.Commit(&incr.Snapshot{
		ConfigKey:  st.inputs.ConfigKey,
		ProgramKey: st.inputs.ProgramKey,
		FIKey:      st.inputs.FIKey,
		Procs:      procs,
	})
}

// portableEnv converts a bound entry environment to the name-keyed
// form summaries carry. Names are unique within an environment:
// formals and globals share a procedure-level namespace (sem rejects
// shadowing).
func portableEnv(env lattice.Env[*sem.Var]) map[string]lattice.Elem {
	m := make(map[string]lattice.Elem, len(env))
	for v, e := range env {
		m[v.Name] = e
	}
	return m
}

// bindEnv rebinds a portable environment against the current program's
// variables. Only names that resolve (p's formals, program globals)
// are bound; a clean procedure's summary can only mention those.
func bindEnv(m map[string]lattice.Elem, p *sem.Proc, globals map[string]*sem.Var) lattice.Env[*sem.Var] {
	env := make(lattice.Env[*sem.Var], len(m))
	for _, f := range p.Params {
		if e, ok := m[f.Name]; ok {
			env[f] = e
		}
	}
	for name, e := range m {
		if g, ok := globals[name]; ok {
			env[g] = e
		}
	}
	return env
}

// summarize distills one scc run into the portable summary downstream
// consumers read. Raw (unfiltered) lattice values are stored; every
// consumer applies opts.filter itself, exactly as the non-incremental
// code path did when reading the scc.Result directly. Each site stores
// global values for exactly REF(callee) (modref.Info.RefGlobals) — the
// paper's sparse per-call-site candidate list — not a value per
// program global.
func summarize(ctx *Context, p *sem.Proc, r *scc.Result, dead bool, nBack int, entry map[string]lattice.Elem) *incr.ProcSummary {
	globals := ctx.Prog.Sem.Globals
	calls := ctx.Prog.FuncOf[p].Calls
	sum := &incr.ProcSummary{
		Dead:      dead,
		BackEdges: nBack,
		Entry:     entry,
		Sites:     make([]incr.SiteValues, len(calls)),
	}
	// One backing array each for the per-site argument and global value
	// slices: the summary is immutable once built, so the sites can
	// share storage (capped subslices) instead of allocating per call.
	// GlobIdx aliases the per-procedure RefGlobals slices directly.
	nargs, nglob := 0, 0
	for _, call := range calls {
		if r.Reachable(call) {
			nargs += len(call.Args)
			nglob += len(ctx.MR.RefGlobals(call.Callee))
		}
	}
	argBacking := make([]lattice.Elem, nargs)
	globBacking := make([]lattice.Elem, nglob)
	for k, call := range calls {
		sv := incr.SiteValues{Reachable: r.Reachable(call)}
		if sv.Reachable {
			na := len(call.Args)
			sv.Args, argBacking = argBacking[:na:na], argBacking[na:]
			for i := range call.Args {
				sv.Args[i] = r.ArgValue(call, i)
			}
			sv.GlobIdx = ctx.MR.RefGlobals(call.Callee)
			ng := len(sv.GlobIdx)
			sv.GlobVals, globBacking = globBacking[:ng:ng], globBacking[ng:]
			for j, gi := range sv.GlobIdx {
				sv.GlobVals[j] = r.GlobalValueAtCall(call, globals[gi])
			}
		}
		sum.Sites[k] = sv
	}
	return sum
}

// mergeSiteValues installs one procedure's call-site values into the
// shared Result maps (ArgVals and the sparse global candidate maps).
// Must run single-threaded. Semantics match the former direct
// collection from scc.Result: unreachable sites contribute ⊤ argument
// values and empty global maps, as does any site of a dead procedure.
func (res *Result) mergeSiteValues(p *sem.Proc, sum *incr.ProcSummary) {
	ctx, opts := res.Ctx, res.Opts
	calls := ctx.Prog.FuncOf[p].Calls
	// Shared backing array for the per-site ArgVals slices; every
	// consumer reads GlobalCallVals/VisibleCallGlobals through len or
	// range, so empty candidate maps stay nil instead of allocating.
	nargs := 0
	for _, call := range calls {
		nargs += len(call.Args)
	}
	backing := make([]lattice.Elem, nargs)
	for k, call := range calls {
		sv := sum.Sites[k]
		na := len(call.Args)
		vals := backing[:na:na]
		backing = backing[na:]
		for i := range call.Args {
			if sv.Reachable {
				vals[i] = opts.filter(sv.Args[i])
			} else {
				vals[i] = lattice.TopElem()
			}
		}
		var gm, vm map[*sem.Var]val.Value
		if sv.Reachable && !sum.Dead {
			// The stored set is Ref(call.Callee) already, so no
			// membership filter is needed here.
			for j, gi := range sv.GlobIdx {
				gv := opts.filter(sv.GlobVals[j])
				if !gv.IsConst() {
					continue
				}
				g := ctx.Prog.Sem.Globals[gi]
				if gm == nil {
					gm = make(map[*sem.Var]val.Value)
				}
				gm[g] = gv.Val
				// VIS: the subset also visible in the calling
				// procedure (paper §4).
				if p.UsesSet[g] {
					if vm == nil {
						vm = make(map[*sem.Var]val.Value)
					}
					vm[g] = gv.Val
				}
			}
		}
		res.ArgVals[call] = vals
		res.GlobalCallVals[call] = gm
		res.VisibleCallGlobals[call] = vm
	}
}

// ssaPool supplies per-procedure SSA form. Slots are written only by
// the position's owning worker (or the prebuild pass); stage barriers
// provide the happens-before for cross-stage reads.
type ssaPool struct {
	ctx   *Context
	slots []*ssa.SSA
	built atomic.Int64
}

func newSSAPool(ctx *Context) *ssaPool {
	sp := &ssaPool{ctx: ctx, slots: make([]*ssa.SSA, len(ctx.CG.Reachable))}
	if len(ctx.SSACache) == len(sp.slots) {
		// Seed from the load-time prebuild (Context.SSAPrebuildShards):
		// the overlay is read-only during propagation, so sharing one
		// cache across analyses — including concurrent ones — is safe.
		copy(sp.slots, ctx.SSACache)
	}
	return sp
}

// prebuilt counts the slots already filled (by the load-time cache).
func (sp *ssaPool) prebuilt() int {
	n := 0
	for _, s := range sp.slots {
		if s != nil {
			n++
		}
	}
	return n
}

// prebuild constructs the SSA of the given positions concurrently (nil
// means all positions).
func (sp *ssaPool) prebuild(positions []int, workers int) {
	if positions == nil {
		positions = make([]int, len(sp.slots))
		for i := range positions {
			positions[i] = i
		}
	}
	driver.Parallel(len(positions), workers, func(k int) {
		i := positions[k]
		if sp.slots[i] != nil {
			return // seeded from the load-time SSA cache
		}
		sp.slots[i] = ssa.Build(sp.ctx.Prog.FuncOf[sp.ctx.CG.Reachable[i]])
		sp.built.Add(1)
	})
}

// get returns position i's SSA, building it on demand. Only the worker
// that owns position i may call this during a wavefront.
func (sp *ssaPool) get(i int) *ssa.SSA {
	if sp.slots[i] == nil {
		sp.slots[i] = ssa.Build(sp.ctx.Prog.FuncOf[sp.ctx.CG.Reachable[i]])
		sp.built.Add(1)
	}
	return sp.slots[i]
}

// filterLevels drops positions accepted by skip and levels left empty.
func filterLevels(levels [][]int, keep func(int) bool) [][]int {
	var out [][]int
	for _, lv := range levels {
		var d []int
		for _, i := range lv {
			if keep(i) {
				d = append(d, i)
			}
		}
		if len(d) > 0 {
			out = append(out, d)
		}
	}
	return out
}
