package fsicp

import (
	"context"
	"fmt"

	"fsicp/internal/alias"
	"fsicp/internal/ast"
	"fsicp/internal/callgraph"
	"fsicp/internal/driver"
	"fsicp/internal/icp"
	"fsicp/internal/incr"
	"fsicp/internal/ir"
	"fsicp/internal/irbuild"
	"fsicp/internal/modref"
	"fsicp/internal/parser"
	"fsicp/internal/sem"
	"fsicp/internal/source"
)

// Session is an incremental analysis session over successive versions
// of one program. Where Load and Program.Analyze recompute everything
// from scratch, a Session carries two reuse layers across Update
// calls:
//
//   - Load-pass memoization (internal/driver.Memo): the parse pass is
//     keyed by the source text, and the semantic and interprocedural
//     passes (sem through clobbers) are keyed by the source's token
//     stream — so a comment or whitespace edit reparses but reuses the
//     entire compiled program, and an unchanged source reuses
//     everything.
//
//   - Per-procedure analysis caching (internal/incr.Engine): each
//     analysis configuration owns an engine whose snapshot and value
//     cache let the flow-sensitive methods re-analyse only the
//     procedures an edit actually affects. Incremental results are
//     byte-identical to a cold analysis of the same source (the
//     differential property tests enforce this).
//
// A Session is not safe for concurrent use, and the destructive
// Program methods (ApplyTransform, Clone, Inline, RemoveDeadProcedures)
// must not be applied to a Program still owned by a Session — they
// mutate state the next Update would reuse. Take a fresh Load for
// transformation work.
type Session struct {
	filename string
	opts     LoadOptions
	memo     *driver.Memo
	engines  map[Config]*incr.Engine
	version  int

	cur *sessionState
}

// sessionState is the artifact set of the session's current version.
type sessionState struct {
	srcKey  string
	astKey  string
	astProg *ast.Program
	prog    *Program
}

// NewSession loads the initial version of the program. The error is
// the same Load would report.
func NewSession(filename, src string) (*Session, error) {
	return NewSessionWith(filename, src, LoadOptions{})
}

// NewSessionWith is NewSession with load options; every Update runs
// its sharded load passes under opts.Workers.
func NewSessionWith(filename, src string, opts LoadOptions) (*Session, error) {
	s := &Session{
		filename: filename,
		opts:     opts,
		memo:     driver.NewMemo(),
		engines:  make(map[Config]*incr.Engine),
	}
	if _, err := s.Update(src); err != nil {
		return nil, err
	}
	return s, nil
}

// Program returns the current version's loaded program.
func (s *Session) Program() *Program { return s.cur.prog }

// Version counts successful Updates (1 after NewSession).
func (s *Session) Version() int { return s.version }

// Update replaces the program with a new source version, reusing
// every load pass whose inputs are unchanged. On error (a parse or
// semantic diagnostic) the session keeps its previous version.
func (s *Session) Update(src string) (*Program, error) {
	f := source.NewFile(s.filename, src)
	prev := s.cur
	next := &sessionState{srcKey: incr.HashString(src)}

	var (
		sc      *sem.Checker
		semProg *sem.Program
		irProg  *ir.Program
		cg      *callgraph.Graph
		al      *alias.Info
		mr      *modref.Info
		pb      *irbuild.Builder
		mb      *modref.Builder
		ictx    *icp.Context
	)
	// astKey fingerprints the source's token stream (kinds and
	// spellings, not positions): equal keys guarantee structurally
	// identical ASTs, so the semantic passes can be shared. Computed at
	// most once per Update, straight from the source — no parse needed.
	astKey := func() string {
		if next.astKey == "" {
			next.astKey = incr.TokenKey(src)
		}
		return next.astKey
	}

	m := driver.NewManager()
	m.SetMemo(s.memo)
	m.SetWorkers(s.opts.Workers)
	m.Add(driver.Pass{
		Name:        "parse",
		Fingerprint: func() string { return next.srcKey },
		Run: func(st *driver.PassStats) (err error) {
			next.astProg, err = parser.ParseFile(f)
			return err
		},
		Reuse: func(st *driver.PassStats) error {
			next.astProg = prev.astProg
			st.Notes = "source unchanged"
			return nil
		},
	})
	// The semantic check records its resolution on the AST it checks,
	// so an AST a committed version's Program reads must never be
	// checked again (a concurrent reader of that Program would race
	// with the rewrite). It is not: the parse pass is reused only when
	// the source equals the last successful Update's (the memo records
	// complete runs only), and then the sem pass, whose astKey is a
	// function of that same source, is reused too.
	//
	// The semantic and interprocedural passes all consume the checked
	// AST (directly or transitively), so they share one fingerprint:
	// the token stream. A lexical-only edit therefore reuses all of
	// them — including the clobber-mutated IR — wholesale.
	// The sharded passes mirror LoadContext: per-procedure work fans
	// over the session's worker bound, serial prologue/epilogue keep
	// numbering and fixpoints deterministic.
	reusable := []struct {
		name   string
		deps   []string
		run    func(st *driver.PassStats) error
		shards func(workers int) (int, func(int))
		finish func(st *driver.PassStats) error
		use    func()
	}{
		{name: "sem", deps: []string{"parse"},
			run: func(st *driver.PassStats) error {
				sc = sem.Begin(next.astProg, f)
				return nil
			},
			shards: func(workers int) (int, func(int)) {
				return sc.NumProcs(), sc.CheckProc
			},
			finish: func(st *driver.PassStats) (err error) {
				semProg, err = sc.Finish()
				if err == nil {
					st.Procs = len(semProg.Procs)
				}
				return err
			},
			use: func() { semProg = prev.prog.ctx.Prog.Sem }},
		{name: "irbuild", deps: []string{"sem"},
			run: func(st *driver.PassStats) error {
				pb = irbuild.NewBuilder(semProg)
				return nil
			},
			shards: func(workers int) (int, func(int)) {
				return pb.NumProcs(), pb.BuildProc
			},
			finish: func(st *driver.PassStats) (err error) {
				irProg, err = pb.Finish()
				if err == nil {
					st.Procs = len(irProg.Funcs)
				}
				return err
			},
			use: func() { irProg = prev.prog.ctx.Prog }},
		{name: "callgraph", deps: []string{"irbuild"}, run: func(st *driver.PassStats) error {
			cg = callgraph.Build(irProg)
			st.Procs = len(cg.Reachable)
			back, total := cg.BackEdgeRatio()
			st.Notes = fmt.Sprintf("%d edges, %d back", total, back)
			return nil
		}, use: func() { cg = prev.prog.ctx.CG }},
		{name: "alias", deps: []string{"callgraph"},
			run: func(st *driver.PassStats) error {
				al = alias.Fixpoint(irProg, cg)
				st.Procs = len(cg.Reachable)
				return nil
			},
			shards: func(workers int) (int, func(int)) {
				return len(cg.Reachable), al.BuildPartners
			},
			finish: func(st *driver.PassStats) error {
				al.FinishPartners()
				return nil
			},
			use: func() { al = prev.prog.ctx.AL }},
		{name: "modref", deps: []string{"alias"},
			run: func(st *driver.PassStats) error {
				mb = modref.Begin(irProg, cg, al)
				st.Procs = len(cg.Reachable)
				return nil
			},
			shards: func(workers int) (int, func(int)) {
				return mb.NumProcs(), mb.CollectProc
			},
			finish: func(st *driver.PassStats) error {
				mr = mb.Finish()
				return nil
			},
			use: func() { mr = prev.prog.ctx.MR }},
		{name: "clobbers", deps: []string{"modref"},
			shards: func(workers int) (int, func(int)) {
				return al.ClobberShards(irProg, cg)
			},
			use: func() {}}, // the reused IR is already clobber-mutated
		{name: "ssa", deps: []string{"clobbers"},
			run: func(st *driver.PassStats) error {
				ictx = &icp.Context{Prog: irProg, CG: cg, AL: al, MR: mr}
				st.Procs = len(cg.Reachable)
				return nil
			},
			shards: func(workers int) (int, func(int)) {
				return ictx.SSAPrebuildShards()
			},
			// All load passes share the astKey fingerprint, so a reused
			// ssa pass implies every input artifact is prev's — the whole
			// context (including the prebuilt SSA cache) carries over.
			use: func() { ictx = prev.prog.ctx }},
	}
	for _, p := range reusable {
		p := p
		m.Add(driver.Pass{
			Name:        p.name,
			Deps:        p.deps,
			Fingerprint: astKey,
			Run:         p.run,
			Shards:      p.shards,
			Finish:      p.finish,
			Reuse: func(st *driver.PassStats) error {
				p.use()
				st.Notes = "AST unchanged"
				return nil
			},
		})
	}

	trace, err := m.Run()
	if err != nil {
		return nil, err
	}
	// The token fingerprint is normally computed by the pass memo above;
	// force it so SourceKey is always available on a committed version.
	astKey()
	next.prog = &Program{ctx: ictx, trace: trace}
	s.cur = next
	s.version++
	return next.prog, nil
}

// SourceKey returns the token-stream fingerprint of the session's
// current version — the same value SourceFingerprint(src) yields for
// the source it was built from. The daemon's session pool compares it
// against an incoming request's fingerprint to skip Update entirely
// when the program is unchanged (cheaper than Update's own
// memoization, which still has to lex the source).
func (s *Session) SourceKey() string { return s.cur.astKey }

// Analyze runs the selected ICP method on the current version with
// the session's incremental engine for that configuration attached:
// only procedures affected by the edits since the configuration's
// last Analyze are re-analysed. Results are byte-identical to
// Program.Analyze on the same source. Analysis.Incremental reports
// how much was reused.
func (s *Session) Analyze(cfg Config) *Analysis {
	a, err := s.AnalyzeContext(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// AnalyzeContext is Session.Analyze under a context, with the same
// degradation semantics as Program.AnalyzeContext: cancellation and
// deadline expiry degrade unfinished procedures to the
// flow-insensitive solution instead of failing. The session stays
// usable afterwards — degraded procedures are never cached, so a later
// Analyze with a live context recomputes them at full precision.
func (s *Session) AnalyzeContext(ctx context.Context, cfg Config) (*Analysis, error) {
	// Engines are keyed by the configuration minus its deadline (see
	// Config.engineKey): per-request timeouts — the daemon's normal
	// traffic — must share cached facts, not multiply engines.
	key := cfg.engineKey()
	eng := s.engines[key]
	if eng == nil {
		// Memory-only by default; layered over the shared persistent
		// store when the config names a cache directory.
		eng = newEngine(cfg, nil)
		s.engines[key] = eng
	}
	return s.cur.prog.analyze(ctx, cfg, eng)
}

// Incremental reports the reuse achieved by a Session.Analyze run:
// procedures whose previous summaries were reused wholesale, and
// value-cache hits and misses among the re-analysed ones. All zero
// for a cold (Program.Analyze) run.
func (a *Analysis) Incremental() (procsReused, cacheHits, cacheMisses int) {
	return a.res.ProcsReused, a.res.CacheHits, a.res.CacheMisses
}

// ConstantDelta is one difference between two Constants listings.
type ConstantDelta struct {
	// Op is "+" (added), "-" (removed), or "~" (value changed).
	Op string
	Constant
	// OldValue is the previous value when Op is "~".
	OldValue string
}

// DiffConstants compares two Constants listings (as returned by
// Analysis.Constants) and returns the differences: changes and
// additions in after's order, then removals in before's order.
// cmd/fsicp's -watch mode prints these between versions.
func DiffConstants(before, after []Constant) []ConstantDelta {
	type key struct{ proc, v string }
	prev := make(map[key]Constant, len(before))
	for _, c := range before {
		prev[key{c.Proc, c.Var}] = c
	}
	var out []ConstantDelta
	for _, c := range after {
		k := key{c.Proc, c.Var}
		if old, ok := prev[k]; !ok {
			out = append(out, ConstantDelta{Op: "+", Constant: c})
		} else if old.Value != c.Value {
			out = append(out, ConstantDelta{Op: "~", Constant: c, OldValue: old.Value})
		}
		delete(prev, k)
	}
	for _, c := range before {
		if _, gone := prev[key{c.Proc, c.Var}]; gone {
			out = append(out, ConstantDelta{Op: "-", Constant: c})
		}
	}
	return out
}

// EliminationDelta is one difference between two Eliminations listings.
type EliminationDelta struct {
	// Op is "+" (procedure gained eliminations), "-" (lost all of
	// them), or "~" (counts changed).
	Op string
	ProcElimination
	// OldInstrs/OldBranches are the previous counts when Op is "~".
	OldInstrs   int
	OldBranches int
}

// DiffEliminations compares two Eliminations listings (as returned by
// Analysis.Eliminations) and returns the differences: changes and
// additions in after's order, then removals in before's order.
// cmd/fsicp's -watch mode prints these between versions, next to the
// constant deltas.
func DiffEliminations(before, after []ProcElimination) []EliminationDelta {
	prev := make(map[string]ProcElimination, len(before))
	for _, e := range before {
		prev[e.Proc] = e
	}
	var out []EliminationDelta
	for _, e := range after {
		if old, ok := prev[e.Proc]; !ok {
			out = append(out, EliminationDelta{Op: "+", ProcElimination: e})
		} else if old.Instrs != e.Instrs || old.Branches != e.Branches {
			out = append(out, EliminationDelta{Op: "~", ProcElimination: e,
				OldInstrs: old.Instrs, OldBranches: old.Branches})
		}
		delete(prev, e.Proc)
	}
	for _, e := range before {
		if _, gone := prev[e.Proc]; gone {
			out = append(out, EliminationDelta{Op: "-", ProcElimination: e})
		}
	}
	return out
}

// String renders a delta as one line, e.g.
// "+ sub1: 3 instrs, 1 branches eliminable" or
// "~ main: 2 instrs, 0 branches eliminable (was 4, 1)".
func (d EliminationDelta) String() string {
	s := fmt.Sprintf("%s %s: %d instrs, %d branches eliminable",
		d.Op, d.Proc, d.Instrs, d.Branches)
	if d.Op == "~" {
		s += fmt.Sprintf(" (was %d, %d)", d.OldInstrs, d.OldBranches)
	}
	return s
}

// String renders a delta as one line, e.g. "+ p2.a0 = 7" or
// "~ main.g1 = 3 (was 2)".
func (d ConstantDelta) String() string {
	s := fmt.Sprintf("%s %s.%s = %s", d.Op, d.Proc, d.Var, d.Value)
	if d.Op == "~" {
		s += fmt.Sprintf(" (was %s)", d.OldValue)
	}
	return s
}
