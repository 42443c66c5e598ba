// Package bitset provides the minimal dense bit set the hot analysis
// paths use in place of map[...]bool. Keys are small dense integers
// (block indices, block*width+var products, edge indices), so a
// []uint64 gives O(1) membership with one allocation and no hashing —
// the layout Wegman–Zadeck's sparse conditional constant algorithm is
// designed around.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity 0; use New (or Reset) to size it.
type Set []uint64

// New returns a set able to hold bits [0, n).
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Has reports whether bit i is set. Out-of-range bits read as unset.
func (s Set) Has(i int) bool {
	w := i >> 6
	if w < 0 || w >= len(s) {
		return false
	}
	return s[w]&(1<<(uint(i)&63)) != 0
}

// Add sets bit i and reports whether the set changed. The bit must be
// within the capacity the set was created with.
func (s Set) Add(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if s[w]&m != 0 {
		return false
	}
	s[w] |= m
	return true
}

// Union ORs t into s word by word and reports whether s changed. t
// must not be longer than s.
func (s Set) Union(t Set) bool {
	changed := false
	for i, w := range t {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls fn for every set bit, in increasing order.
func (s Set) Each(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			fn(wi<<6 | bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Clear unsets every bit, keeping the capacity.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Reset makes the set empty with capacity for bits [0, n), reusing the
// backing array when it is large enough. It returns the set to use
// (the receiver or a regrown one), for pooling scratch sets across
// runs.
func (s Set) Reset(n int) Set {
	w := (n + 63) / 64
	if cap(s) < w {
		return make(Set, w)
	}
	s = s[:w]
	s.Clear()
	return s
}

// SpillThreshold is the capacity (in bits) above which NewAuto switches
// from the dense []uint64 representation to the sparse one. 1<<21 bits
// is a 256 KiB dense set — cheap to allocate and clear; anything larger
// typically comes from a quadratic index domain (blocks × vars, edges ×
// edges) on a 10k+-procedure corpus, where the populated fraction is
// tiny and the dense array would dominate peak heap.
const SpillThreshold = 1 << 21

// Auto is a bit set whose representation is chosen from its capacity:
// dense below SpillThreshold, sparse (word-indexed map) above it. The
// sparse form trades O(1) array indexing for a map lookup but allocates
// proportionally to the bits actually set — the quadratic domains that
// need it are sparse in practice (phi placement touches |defs| of the
// blocks×vars grid, edge-executable touches the real CFG edges of the
// nblocks² grid).
type Auto struct {
	dense  Set
	sparse map[int]uint64 // word index → word; nil in dense mode
}

// NewAuto returns an empty set able to hold bits [0, n), choosing the
// representation by capacity.
func NewAuto(n int) *Auto {
	if n <= SpillThreshold {
		return &Auto{dense: New(n)}
	}
	return &Auto{sparse: make(map[int]uint64)}
}

// Sparse reports whether the set spilled to the sparse representation.
func (a *Auto) Sparse() bool { return a.sparse != nil }

// Reset empties the set and resizes it for bits [0, n), reusing the
// existing backing when the representation matches (a dense set keeps
// its word array, a sparse set keeps its map). A nil receiver, or a
// capacity change that crosses SpillThreshold, allocates fresh. It
// returns the set to use — the pattern Set.Reset established for
// pooled scratch.
func (a *Auto) Reset(n int) *Auto {
	if a == nil {
		return NewAuto(n)
	}
	if n <= SpillThreshold {
		if a.sparse != nil {
			return &Auto{dense: New(n)}
		}
		a.dense = a.dense.Reset(n)
		return a
	}
	if a.sparse == nil {
		return &Auto{sparse: make(map[int]uint64)}
	}
	clear(a.sparse)
	return a
}

// Has reports whether bit i is set.
func (a *Auto) Has(i int) bool {
	if a.sparse == nil {
		return a.dense.Has(i)
	}
	return a.sparse[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add sets bit i and reports whether the set changed.
func (a *Auto) Add(i int) bool {
	if a.sparse == nil {
		return a.dense.Add(i)
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	old := a.sparse[w]
	if old&m != 0 {
		return false
	}
	a.sparse[w] = old | m
	return true
}
