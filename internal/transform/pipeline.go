package transform

import (
	"fmt"

	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/ir"
	"fsicp/internal/lattice"
	"fsicp/internal/sem"
	"fsicp/internal/ssa"
)

// Pass names accepted by Options.Passes, in execution order.
const (
	PassFold     = "fold"     // constant folding + dead-branch deletion
	PassCopyProp = "copyprop" // copy propagation
	PassDSE      = "dse"      // dead-store elimination
	PassCSE      = "cse"      // local CSE over the dominator tree
	PassLICM     = "licm"     // loop-invariant constant hoisting
)

// AllPasses returns every pass name in execution order.
func AllPasses() []string {
	return []string{PassFold, PassCopyProp, PassDSE, PassCSE, PassLICM}
}

// Options configures an Optimize run.
type Options struct {
	// Passes selects the passes to run, in any order and with
	// duplicates ignored; execution order is always AllPasses order.
	// Nil or empty means all passes.
	Passes []string
	// Workers bounds the per-function shard fan-out (0 = GOMAXPROCS).
	Workers int
	// Trace, when non-nil, collects the per-pass PassStats alongside
	// any earlier load/analysis passes it already holds.
	Trace *driver.Trace
}

// selectPasses normalises Passes to canonical order, rejecting unknown
// names.
func selectPasses(names []string) ([]string, error) {
	if len(names) == 0 {
		return AllPasses(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		switch n {
		case PassFold, PassCopyProp, PassDSE, PassCSE, PassLICM:
			want[n] = true
		default:
			return nil, fmt.Errorf("transform: unknown pass %q", n)
		}
	}
	var out []string
	for _, n := range AllPasses() {
		if want[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// optState is the shared mutable state of one Optimize run: the
// per-function SSA overlays the passes compose on. ssas[i] is nil when
// function i's overlay must be (re)built — initially, and again after a
// pass changed its CFG.
type optState struct {
	ctx  *icp.Context
	fns  []*ir.Func
	envs []lattice.Env[*sem.Var]
	ssas []*ssa.SSA
}

// overlay returns function i's current SSA overlay, building it on
// demand. Each function is owned by exactly one shard per pass, so
// there is no locking.
func (st *optState) overlay(i int) *ssa.SSA {
	if st.ssas[i] == nil {
		st.ssas[i] = ssa.Build(st.fns[i])
	}
	return st.ssas[i]
}

// Optimize runs the selected optimization passes over every reachable
// procedure, scheduled through the driver pass manager with one shard
// per function, and returns the totals plus per-pass breakdown. The
// rewritten program produces byte-identical interpreter output; the
// result is independent of Workers.
//
// Optimize is destructive: it rewrites ctx.Prog in place, drops the
// prebuilt SSA cache, and resets every function's content fingerprint
// (via ir.RebuildCallLists), so incremental sessions and later analyses
// observe the transformed program.
func Optimize(ctx *icp.Context, env EnvFn, opts Options) (Report, error) {
	passes, err := selectPasses(opts.Passes)
	if err != nil {
		return Report{}, err
	}

	st := &optState{
		ctx:  ctx,
		fns:  make([]*ir.Func, len(ctx.CG.Reachable)),
		envs: make([]lattice.Env[*sem.Var], len(ctx.CG.Reachable)),
		ssas: make([]*ssa.SSA, len(ctx.CG.Reachable)),
	}
	for i, p := range ctx.CG.Reachable {
		st.fns[i] = ctx.Prog.FuncOf[p]
		st.envs[i] = env(p)
	}
	// Seed the overlays from the prebuilt cache when present, then drop
	// the cache immediately: the passes mutate the overlays in place,
	// so nothing else may read them from here on.
	if ctx.SSACache != nil {
		copy(st.ssas, ctx.SSACache)
		ctx.InvalidateSSA()
	}

	var rep Report
	m := driver.NewManager()
	m.SetWorkers(opts.Workers)
	prev := ""
	for _, name := range passes {
		name := name
		passName := "opt-" + name
		run := st.shardFn(name)
		shardReps := make([]PassReport, len(st.fns))
		var deps []string
		if prev != "" {
			deps = []string{prev}
		}
		m.Add(driver.Pass{
			Name: passName,
			Deps: deps,
			Shards: func(workers int) (int, func(int)) {
				return len(st.fns), func(i int) { shardReps[i] = run(i) }
			},
			Finish: func(ps *driver.PassStats) error {
				// Shard reports are summed in function index order, so
				// the report (like the rewrites themselves) is
				// identical for every worker count.
				pr := PassReport{Pass: name}
				for _, sr := range shardReps {
					pr.Counts.add(sr.Counts)
				}
				rep.addPass(pr)
				ps.Procs = len(st.fns)
				ps.Notes = pr.notes()
				return nil
			},
		})
		prev = passName
	}
	m.Add(driver.Pass{
		Name: "opt-finish",
		Deps: []string{prev},
		Run: func(ps *driver.PassStats) error {
			// Renumber, refresh call lists, and reset fingerprints so
			// sessions and later analyses see the rewritten program.
			ir.RebuildCallLists(ctx.Prog)
			ctx.InvalidateSSA()
			ps.Procs = len(st.fns)
			ps.Notes = fmt.Sprintf("%d instrs eliminated, %d branches",
				rep.EliminatedInstrs(), rep.FoldedBranches)
			return nil
		},
	})

	if opts.Trace != nil {
		err = m.RunInto(opts.Trace)
	} else {
		_, err = m.Run()
	}
	if err != nil {
		// Leave the program consistent even on failure (deps guarantee
		// earlier passes completed whole-program).
		ir.RebuildCallLists(ctx.Prog)
		ctx.InvalidateSSA()
		return Report{}, err
	}
	return rep, nil
}

// shardFn returns the per-function worker for one pass.
func (st *optState) shardFn(name string) func(i int) PassReport {
	switch name {
	case PassFold:
		return st.foldFunc
	case PassCopyProp:
		return st.copyPropFunc
	case PassDSE:
		return st.dseFunc
	case PassCSE:
		return st.cseFunc
	case PassLICM:
		return st.licmFunc
	}
	panic("transform: unknown pass " + name)
}

// defCounts returns, per AllVars position, the number of real
// definitions (instructions, call may-defs, clobbers) of that variable.
// φ definitions are construction artifacts, not runtime writes, and are
// not counted: the overlay's non-pruned placement puts a header φ on
// every loop-defined variable, so counting them would make "exactly one
// definition" unsatisfiable for anything assigned inside a loop. The
// copy-propagation, CSE, and LICM validity conditions all key on
// "exactly one real definition" — a single-store variable holds that
// store's value at every program point the store dominates, φs or not.
func defCounts(s *ssa.SSA) []int {
	nd := make([]int, len(s.Fn.AllVars))
	for d := ssa.Def(0); int(d) < s.NumDefs(); d++ {
		if s.Kind(d) == ssa.DefInstr {
			nd[s.VarOrd(d)]++
		}
	}
	return nd
}
