// Package lattice defines the three-level constant-propagation lattice
//
//	     ⊤  (Top: no evidence yet / optimistically constant)
//	... c1  c2  c3 ...   (one constant value)
//	     ⊥  (Bottom: known non-constant)
//
// with the standard meet operator (Wegman–Zadeck, Kildall). Top is the
// identity of meet; Bottom is absorbing; two different constants meet to
// Bottom.
package lattice

import "fsicp/internal/val"

// Level is the lattice height of an element.
type Level int

const (
	Top Level = iota
	Constant
	Bottom
)

// Elem is one lattice element.
type Elem struct {
	Level Level
	Val   val.Value // meaningful iff Level == Constant
}

// TopElem returns ⊤.
func TopElem() Elem { return Elem{Level: Top} }

// BottomElem returns ⊥.
func BottomElem() Elem { return Elem{Level: Bottom} }

// Const returns the element for a known constant. NaN reals are mapped
// to ⊥: NaN != NaN, so folding a NaN as "the same constant everywhere"
// would be unsound under value comparison.
func Const(v val.Value) Elem {
	if v.IsNaN() {
		return BottomElem()
	}
	return Elem{Level: Constant, Val: v}
}

// Canonical returns the canonical representation of e: ⊤ and ⊥ carry
// no value payload, and a Constant holding NaN collapses to ⊥ (the
// Const invariant, restated for elements built literally). Serializers
// must canonicalise before encoding — two Eq elements must produce
// identical bytes, and Eq ignores the payload of non-constants.
func (e Elem) Canonical() Elem {
	switch {
	case e.Level == Constant && !e.Val.IsNaN():
		return e
	case e.Level == Constant:
		return BottomElem()
	default:
		return Elem{Level: e.Level}
	}
}

// IsTop reports whether e is ⊤.
func (e Elem) IsTop() bool { return e.Level == Top }

// IsConst reports whether e is a single constant.
func (e Elem) IsConst() bool { return e.Level == Constant }

// IsBottom reports whether e is ⊥.
func (e Elem) IsBottom() bool { return e.Level == Bottom }

// Meet returns the greatest lower bound of e and f.
func Meet(e, f Elem) Elem {
	switch {
	case e.IsTop():
		return f
	case f.IsTop():
		return e
	case e.IsBottom() || f.IsBottom():
		return BottomElem()
	case e.Val.Equal(f.Val):
		return e
	default:
		return BottomElem()
	}
}

// Eq reports whether two elements are identical.
func (e Elem) Eq(f Elem) bool {
	if e.Level != f.Level {
		return false
	}
	if e.Level != Constant {
		return true
	}
	return e.Val.Equal(f.Val)
}

// Leq reports whether e ⊑ f (e is lower than or equal to f in the
// lattice order with ⊥ at the bottom).
func Leq(e, f Elem) bool { return Meet(e, f).Eq(e) }

func (e Elem) String() string {
	switch e.Level {
	case Top:
		return "⊤"
	case Bottom:
		return "⊥"
	default:
		return e.Val.String()
	}
}

// Env is a variable environment used to seed procedure entries with
// interprocedural constants. A nil Env behaves as "everything ⊥".
type Env[K comparable] map[K]Elem

// Get returns the element for k, defaulting to ⊥ when absent.
func (e Env[K]) Get(k K) Elem {
	if e == nil {
		return BottomElem()
	}
	if el, ok := e[k]; ok {
		return el
	}
	return BottomElem()
}

// MeetInto lowers the entry for k by meeting it with el; absent keys
// start at ⊤. It reports whether the entry changed.
func (e Env[K]) MeetInto(k K, el Elem) bool {
	old, ok := e[k]
	if !ok {
		old = TopElem()
	}
	nw := Meet(old, el)
	if ok && nw.Eq(old) {
		return false
	}
	e[k] = nw
	return true
}

// EnvReader is the read side shared by the map-backed Env (sparse
// keys, e.g. whole-program global environments) and the slice-backed
// DenseEnv (dense keys, e.g. a procedure's formals plus referenced
// globals). A nil EnvReader means "everything ⊥"; callers hold that
// convention themselves since a nil interface cannot be called.
type EnvReader[K comparable] interface {
	// Get returns the element for k, defaulting to ⊥ when the
	// environment does not bind k.
	Get(k K) Elem
}

// EnvSpillThreshold is the default dense-core size DenseEnvs built by
// NewDenseEnvSpill use for their spillable segment: slots below the
// spill boundary live in flat slices, slots at or past it in a lazily
// allocated overflow map. The analysis binds only the globals a
// procedure transitively references, so on programs with hundreds of
// globals the overflow map stays tiny while the per-procedure slice
// cost stops growing with the program. Tests may override the value
// (0 forces every spillable slot into the overflow map); it is read
// once per environment at construction, never concurrently with a
// write.
var EnvSpillThreshold = 64

// DenseEnv is a slice-backed environment for keys that map to small
// dense slots. It mirrors Env's semantics exactly: unbound keys read
// as ⊥, MeetInto starts absent entries at ⊤, and iteration (Each)
// visits only keys that were explicitly bound — so converting a
// DenseEnv to a map-backed Env reproduces the map the old code built.
//
// Slots in [0, spill) are backed by flat slices; slots in [spill, n)
// spill to an overflow map allocated on first bind. The split mirrors
// the bitset.Auto pattern: the dense core covers the
// procedure-local ordinals that are actually touched, the sparse tail
// keeps the environment from costing O(program) per procedure. Every
// operation is representation-independent, so a fully dense and a
// fully spilled environment built by the same call sequence hold
// identical bindings.
type DenseEnv[K comparable] struct {
	// Index maps a key to its dense slot, or a negative value for keys
	// this environment does not cover (those read as ⊥ and cannot be
	// bound).
	Index func(K) int

	n     int // total slots (dense + spilled)
	vals  []Elem
	bound []bool
	over  map[int]Elem // slots >= len(vals); nil until first bind
	keys  []K          // keys of bound slots, in first-bind order
}

// NewDenseEnv returns a dense environment with n slots addressed by
// index, all slice-backed.
func NewDenseEnv[K comparable](n int, index func(K) int) *DenseEnv[K] {
	return NewDenseEnvSpill(n, n, index)
}

// NewDenseEnvSpill returns an environment with n addressable slots of
// which only the first spill are slice-backed; the rest go to the
// overflow map on demand.
func NewDenseEnvSpill[K comparable](n, spill int, index func(K) int) *DenseEnv[K] {
	if spill > n {
		spill = n
	}
	if spill < 0 {
		spill = 0
	}
	return &DenseEnv[K]{Index: index, n: n, vals: make([]Elem, spill), bound: make([]bool, spill)}
}

// at returns slot i's element and whether it is bound. i must be in
// [0, n).
func (d *DenseEnv[K]) at(i int) (Elem, bool) {
	if i < len(d.vals) {
		return d.vals[i], d.bound[i]
	}
	e, ok := d.over[i]
	return e, ok
}

// put binds slot i (recording k on first bind).
func (d *DenseEnv[K]) put(i int, k K, e Elem, wasBound bool) {
	if !wasBound {
		d.keys = append(d.keys, k)
	}
	if i < len(d.vals) {
		d.bound[i] = true
		d.vals[i] = e
		return
	}
	if d.over == nil {
		d.over = make(map[int]Elem)
	}
	d.over[i] = e
}

// Get returns the element for k, defaulting to ⊥ when unbound.
func (d *DenseEnv[K]) Get(k K) Elem {
	if d == nil {
		return BottomElem()
	}
	i := d.Index(k)
	if i < 0 || i >= d.n {
		return BottomElem()
	}
	e, ok := d.at(i)
	if !ok {
		return BottomElem()
	}
	return e
}

// MeetInto lowers the entry for k by meeting it with el; unbound keys
// start at ⊤. It reports whether the entry changed. Keys outside the
// environment's index range are ignored (and report no change).
func (d *DenseEnv[K]) MeetInto(k K, el Elem) bool {
	i := d.Index(k)
	if i < 0 || i >= d.n {
		return false
	}
	old, bound := d.at(i)
	if !bound {
		old = TopElem()
	}
	nw := Meet(old, el)
	if bound && nw.Eq(old) {
		return false
	}
	d.put(i, k, nw, bound)
	return true
}

// Set binds k to el unconditionally (used for the residual-⊤ demotion
// pass entry environments perform).
func (d *DenseEnv[K]) Set(k K, el Elem) {
	i := d.Index(k)
	if i < 0 || i >= d.n {
		return
	}
	_, bound := d.at(i)
	d.put(i, k, el, bound)
}

// Len returns the number of bound keys.
func (d *DenseEnv[K]) Len() int {
	if d == nil {
		return 0
	}
	return len(d.keys)
}

// Each visits every bound key in first-bind order.
func (d *DenseEnv[K]) Each(f func(K, Elem)) {
	if d == nil {
		return
	}
	for _, k := range d.keys {
		e, _ := d.at(d.Index(k))
		f(k, e)
	}
}

// ToEnv converts to the map-backed form (for results that outlive the
// analysis and for name-keyed portable summaries).
func (d *DenseEnv[K]) ToEnv() Env[K] {
	if d == nil {
		return nil
	}
	m := make(Env[K], len(d.keys))
	d.Each(func(k K, e Elem) { m[k] = e })
	return m
}
