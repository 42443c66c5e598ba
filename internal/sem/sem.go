// Package sem performs name resolution and type checking for MiniFort
// and produces the semantic Program representation consumed by every
// later phase (IR construction, call graph, MOD/REF, constant
// propagation, interpretation).
package sem

import (
	"slices"
	"strconv"

	"fsicp/internal/ast"
	"fsicp/internal/source"
	"fsicp/internal/val"
)

// VarKind classifies a variable.
type VarKind int

const (
	KindLocal VarKind = iota
	KindFormal
	KindGlobal
	KindTemp // compiler-introduced temporary (IR construction)
)

func (k VarKind) String() string {
	switch k {
	case KindLocal:
		return "local"
	case KindFormal:
		return "formal"
	case KindGlobal:
		return "global"
	case KindTemp:
		return "temp"
	}
	return "unknown"
}

// Var is one variable: a global, a formal parameter (by reference), a
// procedure local, or a compiler temporary.
type Var struct {
	Name  string
	Kind  VarKind
	Type  ast.Type
	Index int   // formal position in Owner, or global index in Program
	Owner *Proc // nil for globals
	Pos   source.Pos

	// Slot is the variable's dense position among the variables its
	// Owner created, assigned at creation: formals take slots
	// 0..len(Params)-1 and every later local or temporary the next free
	// one, so per-procedure tables index by Slot and scale with the
	// procedure, not the program. Unused for globals (see Index).
	Slot int
}

func (v *Var) String() string {
	if v.Kind == KindGlobal {
		return v.Name
	}
	if v.Owner != nil {
		return v.Owner.Name + "." + v.Name
	}
	return v.Name
}

// IsGlobal reports whether the variable is program-wide.
func (v *Var) IsGlobal() bool { return v.Kind == KindGlobal }

// Proc is one procedure or function.
type Proc struct {
	Name    string
	Index   int
	IsFunc  bool
	Result  ast.Type
	Params  []*Var
	Locals  []*Var
	Uses    []*Var // visible globals, declaration order
	UsesSet map[*Var]bool
	Decl    *ast.ProcDecl
	// Prog points back at the owning program.
	Prog *Program

	ntemps int
	nslots int // slots handed out to this procedure's variables
}

// newOwned stamps v as a variable of p with the next free slot.
func (p *Proc) newOwned(v *Var) *Var {
	v.Owner = p
	v.Slot = p.nslots
	p.nslots++
	return v
}

// NumSlots returns how many per-procedure slots p's variables occupy
// (Slot runs 0..NumSlots-1).
func (p *Proc) NumSlots() int { return p.nslots }

// varAt returns p's variable in the given slot. Formals are created
// before any local or temporary, so slot s is Params[s] or
// Locals[s-len(Params)] and no slot table is needed.
func (p *Proc) varAt(slot int) *Var {
	if slot < len(p.Params) {
		return p.Params[slot]
	}
	return p.Locals[slot-len(p.Params)]
}

// Local returns the variable that declaration d, in p's body, declared.
func (p *Proc) Local(d *ast.VarDecl) *Var { return p.varAt(int(d.Slot) - 1) }

// NewParam appends a formal parameter to p, with the next formal
// position and slot. All formals must be created before p's first
// local or temporary.
func (p *Proc) NewParam(name string, t ast.Type, pos source.Pos) *Var {
	v := p.newOwned(&Var{Name: name, Kind: KindFormal, Type: t, Index: len(p.Params), Pos: pos})
	p.Params = append(p.Params, v)
	return v
}

// NumFormals returns the number of formal parameters.
func (p *Proc) NumFormals() int { return len(p.Params) }

// NewTemp creates a fresh compiler temporary of the given type and
// registers it with the procedure. It touches only p, so lowering may
// create temporaries of distinct procedures concurrently.
func (p *Proc) NewTemp(t ast.Type) *Var {
	p.ntemps++
	v := p.newOwned(&Var{Name: "%t" + strconv.Itoa(p.ntemps), Kind: KindTemp, Type: t})
	p.Locals = append(p.Locals, v)
	return v
}

// NewLocal creates a fresh source-level local (used by transformation
// passes such as inlining, whose cloned variables should behave like
// programmer-written locals — e.g. they count as substitution sites).
func (p *Proc) NewLocal(name string, t ast.Type) *Var {
	p.ntemps++
	v := p.newOwned(&Var{Name: name + "#" + strconv.Itoa(p.ntemps), Kind: KindLocal, Type: t})
	p.Locals = append(p.Locals, v)
	return v
}

// Program is a checked whole program.
//
// Resolution results live on the syntax nodes themselves (the check
// writes ast.Ident.Ref, ast.CallExpr.Callee, the operator nodes' Type
// and ast.VarDecl.Slot) and are read back through Ref, Callee and
// TypeOf, so no program-wide table keyed by syntax node exists. An AST
// therefore belongs to the one check that annotated it: checking it
// again rewrites the same annotations, which must not race with a
// reader of the earlier Program (no load path does so; see
// fsicp.Session.Update).
type Program struct {
	Name       string
	Globals    []*Var
	GlobalInit map[*Var]val.Value // block-data-style initial constants
	Procs      []*Proc
	ProcByName map[string]*Proc
	Main       *Proc
	AST        *ast.Program

	// checked lists the procedures in check order, the order the
	// syntax annotations index. Transformations may drop or renumber
	// Procs; this copy keeps annotations resolving to the procedures
	// they were checked against.
	checked []*Proc
}

// Ref returns the variable a reference resolved to, or nil for an
// unresolved identifier (or a nil id). The answer depends only on the
// identifier, not on which procedure asks: an identifier copied into
// another procedure (an inlined call's argument syntax) still names
// its original owner's variable.
func (p *Program) Ref(id *ast.Ident) *Var {
	switch {
	case id == nil || id.Ref == 0:
		return nil
	case id.Ref < 0:
		return p.Globals[-id.Ref-1]
	}
	return p.checked[id.RefProc].varAt(int(id.Ref) - 1)
}

// Callee returns the procedure a call invokes, or nil if undeclared.
func (p *Program) Callee(call *ast.CallExpr) *Proc {
	if call.Callee == 0 {
		return nil
	}
	return p.checked[call.Callee-1]
}

// TypeOf returns the checked type of an expression: recorded on
// operator nodes, derived for the rest.
func (p *Program) TypeOf(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.Ident:
		if v := p.Ref(e); v != nil {
			return v.Type
		}
	case *ast.IntLit:
		return ast.TypeInt
	case *ast.RealLit:
		return ast.TypeReal
	case *ast.BoolLit:
		return ast.TypeBool
	case *ast.UnaryExpr:
		return e.Type
	case *ast.BinaryExpr:
		return e.Type
	case *ast.CallExpr:
		if callee := p.Callee(e); callee != nil && callee.IsFunc {
			return callee.Result
		}
	case *ast.ParenExpr:
		return p.TypeOf(e.X)
	}
	return ast.TypeInvalid
}

// Check resolves and type-checks prog. On failure the error is a
// *source.ErrorList describing every problem found. The resolver (a
// *source.File for single-file programs, a *source.FileSet for merged
// multi-file corpora) is only used to render diagnostic positions.
func Check(prog *ast.Program, file source.PosResolver) (*Program, error) {
	c := Begin(prog, file)
	for i := 0; i < c.NumProcs(); i++ {
		c.CheckProc(i)
	}
	return c.Finish()
}

// A Checker is an in-flight check whose per-procedure work can be
// fanned across goroutines: Begin collects the globals and procedure
// signatures serially, CheckProc(i) checks one body with its own
// scope and diagnostic list, writing only procedure i's syntax nodes
// and Proc, and Finish appends the diagnostics in procedure order
// before the whole-program checks — so the result, errors included,
// is byte-identical at every worker count.
type Checker struct {
	p            *Program
	errs         *source.ErrorList
	globalByName map[string]*Var
	diags        [][]source.Diagnostic // per procedure
}

// Begin starts checking prog: globals and procedure signatures.
func Begin(prog *ast.Program, file source.PosResolver) *Checker {
	c := &Checker{
		p: &Program{
			Name:       prog.Name,
			GlobalInit: make(map[*Var]val.Value),
			ProcByName: make(map[string]*Proc),
			AST:        prog,
		},
		errs:         &source.ErrorList{File: file},
		globalByName: make(map[string]*Var),
	}
	c.collectGlobals(prog)
	c.collectProcs(prog)
	c.p.checked = slices.Clone(c.p.Procs)
	c.diags = make([][]source.Diagnostic, len(c.p.Procs))
	return c
}

// NumProcs returns the number of procedure bodies to check.
func (c *Checker) NumProcs() int { return len(c.p.checked) }

// CheckProc checks the body of procedure i. Safe to call concurrently
// for distinct i.
func (c *Checker) CheckProc(i int) {
	pc := &procChecker{p: c.p, globalByName: c.globalByName}
	p := c.p.checked[i]
	pc.checkProc(p, p.Decl)
	c.diags[i] = pc.errs.Diags
}

// Finish completes the check once every procedure is checked.
func (c *Checker) Finish() (*Program, error) {
	for _, d := range c.diags {
		c.errs.Diags = append(c.errs.Diags, d...)
	}
	prog := c.p.AST
	if main, ok := c.p.ProcByName["main"]; !ok {
		c.errs.Errorf(prog.NamePos, "program has no procedure named 'main'")
	} else {
		c.p.Main = main
		if len(main.Params) != 0 {
			c.errs.Errorf(main.Decl.KwPos, "'main' must not declare parameters")
		}
		if main.IsFunc {
			c.errs.Errorf(main.Decl.KwPos, "'main' must be a proc, not a func")
		}
	}
	if err := c.errs.Err(); err != nil {
		return nil, err
	}
	return c.p, nil
}

func (c *Checker) errorf(pos source.Pos, format string, args ...any) {
	c.errs.Errorf(pos, format, args...)
}

func (c *Checker) collectGlobals(prog *ast.Program) {
	for _, g := range prog.Globals {
		if prev, ok := c.globalByName[g.Name]; ok {
			c.errorf(g.KwPos, "global %q redeclared (previous declaration at %v)", g.Name, prev.Pos)
			continue
		}
		v := &Var{Name: g.Name, Kind: KindGlobal, Type: g.Type, Index: len(c.p.Globals), Pos: g.KwPos}
		c.globalByName[g.Name] = v
		c.p.Globals = append(c.p.Globals, v)
		if g.Init != nil {
			if cv, ok := c.evalInitLit(g.Init); ok {
				if cv.Type != g.Type {
					c.errorf(g.Init.Pos(), "initialiser type %s does not match global %q of type %s", cv.Type, g.Name, g.Type)
				} else {
					c.p.GlobalInit[v] = cv
				}
			}
		}
	}
}

func (c *Checker) evalInitLit(e ast.Expr) (val.Value, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return val.Int(e.Value), true
	case *ast.RealLit:
		return val.Real(e.Value), true
	case *ast.BoolLit:
		return val.Bool(e.Value), true
	case *ast.UnaryExpr:
		if x, ok := c.evalInitLit(e.X); ok {
			if v, ok := val.Unary(e.Op, x); ok {
				return v, true
			}
			c.errorf(e.OpPos, "invalid operator %s in global initialiser", e.Op)
		}
		return val.Value{}, false
	}
	c.errorf(e.Pos(), "global initialiser must be a literal")
	return val.Value{}, false
}

func (c *Checker) collectProcs(prog *ast.Program) {
	for _, pd := range prog.Procs {
		if prev, ok := c.p.ProcByName[pd.Name]; ok {
			c.errorf(pd.KwPos, "procedure %q redeclared (previous declaration at %v)", pd.Name, prev.Decl.KwPos)
			// keep parallel indexing with prog.Procs
		}
		p := &Proc{
			Name:    pd.Name,
			Index:   len(c.p.Procs),
			IsFunc:  pd.IsFunc,
			Result:  pd.Result,
			Decl:    pd,
			UsesSet: make(map[*Var]bool),
			Prog:    c.p,
		}
		for _, par := range pd.Params {
			p.NewParam(par.Name, par.Type, par.NamePos)
		}
		if _, dup := c.p.ProcByName[pd.Name]; !dup {
			c.p.ProcByName[pd.Name] = p
		}
		c.p.Procs = append(c.p.Procs, p)
	}
}

// procChecker checks one procedure body; it writes only that
// procedure's Proc and syntax nodes, and its own diagnostics.
type procChecker struct {
	p            *Program
	globalByName map[string]*Var
	errs         source.ErrorList

	proc      *Proc
	scope     map[string]*Var
	loopDepth int
}

func (c *procChecker) errorf(pos source.Pos, format string, args ...any) {
	c.errs.Errorf(pos, format, args...)
}

// record annotates a variable reference with its resolution. During
// the check a procedure's Index is its check-order index.
func (c *procChecker) record(id *ast.Ident, v *Var) {
	if v.IsGlobal() {
		id.Ref, id.RefProc = -int32(v.Index)-1, 0
		return
	}
	id.Ref, id.RefProc = int32(v.Slot)+1, int32(c.proc.Index)
}

func (c *procChecker) checkProc(p *Proc, pd *ast.ProcDecl) {
	c.proc = p
	c.scope = make(map[string]*Var)
	c.loopDepth = 0
	for _, v := range p.Params {
		if prev, ok := c.scope[v.Name]; ok {
			c.errorf(v.Pos, "parameter %q redeclared (previous at %v)", v.Name, prev.Pos)
			continue
		}
		c.scope[v.Name] = v
	}
	for _, u := range pd.Uses {
		g, ok := c.globalByName[u.Name]
		if !ok {
			c.errorf(u.NamePos, "use of undeclared global %q", u.Name)
			continue
		}
		if p.UsesSet[g] {
			c.errorf(u.NamePos, "global %q listed twice in use clause", u.Name)
			continue
		}
		if prev, ok := c.scope[u.Name]; ok {
			c.errorf(u.NamePos, "global %q conflicts with %s %q declared at %v", u.Name, prev.Kind, prev.Name, prev.Pos)
			continue
		}
		c.scope[u.Name] = g
		p.Uses = append(p.Uses, g)
		p.UsesSet[g] = true
		c.record(u, g)
	}
	c.checkBlock(pd.Body)
}

func (c *procChecker) checkBlock(b *ast.Block) {
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
}

func (c *procChecker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.VarDecl:
		if prev, ok := c.scope[s.Name]; ok {
			c.errorf(s.KwPos, "%q redeclared (previous %s at %v)", s.Name, prev.Kind, prev.Pos)
			if s.Init != nil {
				c.checkExpr(s.Init)
			}
			return
		}
		v := c.proc.newOwned(&Var{Name: s.Name, Kind: KindLocal, Type: s.Type, Pos: s.KwPos})
		s.Slot = int32(v.Slot) + 1
		c.scope[s.Name] = v
		c.proc.Locals = append(c.proc.Locals, v)
		if s.Init != nil {
			t := c.checkExpr(s.Init)
			if t != ast.TypeInvalid && t != s.Type {
				c.errorf(s.Init.Pos(), "cannot initialise %s variable %q with %s value", s.Type, s.Name, t)
			}
		}
	case *ast.AssignStmt:
		v := c.resolve(s.Name)
		t := c.checkExpr(s.Value)
		if v != nil && t != ast.TypeInvalid && t != v.Type {
			c.errorf(s.Value.Pos(), "cannot assign %s value to %s variable %q", t, v.Type, v.Name)
		}
	case *ast.IfStmt:
		c.checkCond(s.Cond)
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.Block:
		c.checkBlock(s)
	case *ast.WhileStmt:
		c.checkCond(s.Cond)
		c.loopDepth++
		c.checkBlock(s.Body)
		c.loopDepth--
	case *ast.ForStmt:
		v := c.resolve(s.Var)
		if v != nil && v.Type != ast.TypeInt {
			c.errorf(s.Var.NamePos, "for-loop variable %q must be int, not %s", v.Name, v.Type)
		}
		for _, e := range []ast.Expr{s.Lo, s.Hi, s.Step} {
			if e == nil {
				continue
			}
			if t := c.checkExpr(e); t != ast.TypeInvalid && t != ast.TypeInt {
				c.errorf(e.Pos(), "for-loop bound must be int, not %s", t)
			}
		}
		c.loopDepth++
		c.checkBlock(s.Body)
		c.loopDepth--
	case *ast.CallStmt:
		c.checkCall(s.Call, true)
	case *ast.ReturnStmt:
		if c.proc.IsFunc {
			if s.Value == nil {
				c.errorf(s.KwPos, "func %q must return a value", c.proc.Name)
			} else if t := c.checkExpr(s.Value); t != ast.TypeInvalid && t != c.proc.Result {
				c.errorf(s.Value.Pos(), "func %q returns %s, cannot return %s", c.proc.Name, c.proc.Result, t)
			}
		} else if s.Value != nil {
			c.errorf(s.Value.Pos(), "proc %q cannot return a value", c.proc.Name)
			c.checkExpr(s.Value)
		}
	case *ast.ReadStmt:
		c.resolve(s.Name)
	case *ast.PrintStmt:
		for _, a := range s.Args {
			c.checkExpr(a)
		}
	case *ast.BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(s.KwPos, "break outside loop")
		}
	case *ast.ContinueStmt:
		if c.loopDepth == 0 {
			c.errorf(s.KwPos, "continue outside loop")
		}
	}
}

func (c *procChecker) checkCond(e ast.Expr) {
	if t := c.checkExpr(e); t != ast.TypeInvalid && t != ast.TypeBool {
		c.errorf(e.Pos(), "condition must be bool, not %s", t)
	}
}

// resolve looks up a variable reference; reports and returns nil if
// undeclared.
func (c *procChecker) resolve(id *ast.Ident) *Var {
	if v, ok := c.scope[id.Name]; ok {
		c.record(id, v)
		return v
	}
	if _, isGlobal := c.globalByName[id.Name]; isGlobal {
		c.errorf(id.NamePos, "global %q is not visible here: add it to the procedure's use clause", id.Name)
	} else {
		c.errorf(id.NamePos, "undeclared variable %q", id.Name)
	}
	return nil
}

func (c *procChecker) checkCall(call *ast.CallExpr, stmt bool) ast.Type {
	callee, ok := c.p.ProcByName[call.Fun.Name]
	if !ok {
		c.errorf(call.Fun.NamePos, "call of undeclared procedure %q", call.Fun.Name)
		for _, a := range call.Args {
			c.checkExpr(a)
		}
		return ast.TypeInvalid
	}
	call.Callee = int32(callee.Index) + 1
	if !stmt && !callee.IsFunc {
		c.errorf(call.Fun.NamePos, "proc %q has no result and cannot appear in an expression", callee.Name)
	}
	if len(call.Args) != len(callee.Params) {
		c.errorf(call.Rp, "call of %q with %d argument(s), want %d", callee.Name, len(call.Args), len(callee.Params))
	}
	for i, a := range call.Args {
		t := c.checkExpr(a)
		if i < len(callee.Params) && t != ast.TypeInvalid && t != callee.Params[i].Type {
			c.errorf(a.Pos(), "argument %d of %q has type %s, want %s", i+1, callee.Name, t, callee.Params[i].Type)
		}
	}
	if callee.IsFunc {
		return callee.Result
	}
	return ast.TypeInvalid
}

// checkExpr types an expression, recording the result on operator
// nodes (Program.TypeOf derives it for the rest).
func (c *procChecker) checkExpr(e ast.Expr) ast.Type {
	t := c.typeOf(e)
	switch e := e.(type) {
	case *ast.UnaryExpr:
		e.Type = t
	case *ast.BinaryExpr:
		e.Type = t
	}
	return t
}

func (c *procChecker) typeOf(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.Ident:
		if v := c.resolve(e); v != nil {
			return v.Type
		}
		return ast.TypeInvalid
	case *ast.IntLit:
		return ast.TypeInt
	case *ast.RealLit:
		return ast.TypeReal
	case *ast.BoolLit:
		return ast.TypeBool
	case *ast.StringLit:
		return ast.TypeInvalid // only legal in print; callers don't compare
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X)
		if xt == ast.TypeInvalid {
			return ast.TypeInvalid
		}
		rt, ok := val.UnaryResultType(e.Op, xt)
		if !ok {
			c.errorf(e.OpPos, "invalid operand type %s for unary %s", xt, e.Op)
			return ast.TypeInvalid
		}
		return rt
	case *ast.BinaryExpr:
		xt := c.checkExpr(e.X)
		yt := c.checkExpr(e.Y)
		if xt == ast.TypeInvalid || yt == ast.TypeInvalid {
			return ast.TypeInvalid
		}
		if xt != yt {
			c.errorf(e.Y.Pos(), "mismatched operand types %s and %s for %s", xt, yt, e.Op)
			return ast.TypeInvalid
		}
		rt, ok := val.ResultType(e.Op, xt)
		if !ok {
			c.errorf(e.X.Pos(), "invalid operand type %s for %s", xt, e.Op)
			return ast.TypeInvalid
		}
		return rt
	case *ast.CallExpr:
		return c.checkCall(e, false)
	case *ast.ParenExpr:
		return c.checkExpr(e.X)
	}
	return ast.TypeInvalid
}

// FoldNegatedLiteral folds the restricted unary-minus initialiser shapes
// used by globals; exported for reuse by tools that need init values
// without a checker.
func FoldNegatedLiteral(e ast.Expr) (val.Value, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return val.Int(e.Value), true
	case *ast.RealLit:
		return val.Real(e.Value), true
	case *ast.BoolLit:
		return val.Bool(e.Value), true
	case *ast.UnaryExpr:
		if x, ok := FoldNegatedLiteral(e.X); ok {
			return val.Unary(e.Op, x)
		}
	}
	return val.Value{}, false
}
