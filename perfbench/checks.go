package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fsicp/internal/interp"
)

// The correctness checks take plain data (names and value strings), so
// check_test.go can feed each one a corrupted result.

// constant is one entry constant: the value Var holds on every entry to
// Proc.
type constant struct {
	Proc, Var, Value string
}

// refTrace is the reference interpreter's record of one run, keyed by
// names so it can be stored on disk and reused by later invocations on
// the same input. Procs maps every invoked procedure to its entry
// observations as (variable, value) index pairs into Vars and Vals,
// sorted by variable name; value index 0 means the variable took
// several values.
type refTrace struct {
	Steps    int
	Complete bool
	Vars     []string
	Vals     []string
	Procs    map[string][]uint32
}

// newRefTrace converts an interpreter trace.
func newRefTrace(r *interp.Result) *refTrace {
	ref := &refTrace{Steps: r.Steps, Complete: r.Err == nil, Vals: []string{""}, Procs: make(map[string][]uint32)}
	varIdx := make(map[string]uint32)
	valIdx := make(map[string]uint32)
	intern := func(tab *[]string, idx map[string]uint32, s string) uint32 {
		if i, ok := idx[s]; ok {
			return i
		}
		*tab = append(*tab, s)
		idx[s] = uint32(len(*tab) - 1)
		return idx[s]
	}
	for p, obs := range r.Trace.Entry {
		if r.Trace.Invocations[p] == 0 {
			continue
		}
		type pair struct{ v, x uint32 }
		pairs := make([]pair, 0, len(obs))
		for v, o := range obs {
			if o.Count == 0 {
				continue
			}
			var x uint32
			if c, ok := o.Constant(); ok {
				x = intern(&ref.Vals, valIdx, c.String())
			}
			pairs = append(pairs, pair{intern(&ref.Vars, varIdx, v.Name), x})
		}
		sort.Slice(pairs, func(i, j int) bool { return ref.Vars[pairs[i].v] < ref.Vars[pairs[j].v] })
		flat := make([]uint32, 0, 2*len(pairs))
		for _, pr := range pairs {
			flat = append(flat, pr.v, pr.x)
		}
		ref.Procs[p.Name] = flat
	}
	return ref
}

// lookup returns what the interpreter saw for v at entry to proc:
// invoked reports whether proc ran at all, seen whether v was observed,
// and value is "" when v varied.
func (r *refTrace) lookup(proc, v string) (value string, invoked, seen bool) {
	flat, invoked := r.Procs[proc]
	if !invoked {
		return "", false, false
	}
	n := len(flat) / 2
	i := sort.Search(n, func(i int) bool { return r.Vars[flat[2*i]] >= v })
	if i < n && r.Vars[flat[2*i]] == v {
		return r.Vals[flat[2*i+1]], true, true
	}
	return "", true, false
}

// checkSound verifies every claimed entry constant against the
// reference run: a constant claimed at an invoked procedure must be the
// one value the interpreter observed there. Claims at procedures that
// never ran are unobservable and pass.
func checkSound(claims []constant, ref *refTrace) []string {
	var bad []string
	for _, c := range claims {
		got, invoked, seen := ref.lookup(c.Proc, c.Var)
		switch {
		case !invoked:
		case !seen:
			bad = append(bad, fmt.Sprintf("%s.%s claimed %s but never observed", c.Proc, c.Var, c.Value))
		case got == "":
			bad = append(bad, fmt.Sprintf("%s.%s claimed %s but varies at runtime", c.Proc, c.Var, c.Value))
		case got != c.Value:
			bad = append(bad, fmt.Sprintf("%s.%s claimed %s but observed %s", c.Proc, c.Var, c.Value, got))
		}
	}
	return bad
}

// checkRefines verifies the paper's precision order between two
// methods fact by fact: every constant of the weaker method (FI) is a
// constant of the stronger one (FS) with the same value.
func checkRefines(weak, strong []constant) []string {
	idx := make(map[[2]string]string, len(strong))
	for _, c := range strong {
		idx[[2]string{c.Proc, c.Var}] = c.Value
	}
	var bad []string
	for _, c := range weak {
		v, ok := idx[[2]string{c.Proc, c.Var}]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s.%s = %s found by the weaker method only", c.Proc, c.Var, c.Value))
		} else if v != c.Value {
			bad = append(bad, fmt.Sprintf("%s.%s = %s vs %s", c.Proc, c.Var, c.Value, v))
		}
	}
	return bad
}

// checkSame verifies two constant listings are identical.
func checkSame(got, want []constant) []string {
	var bad []string
	if len(got) != len(want) {
		bad = append(bad, fmt.Sprintf("%d constants, reference has %d", len(got), len(want)))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			bad = append(bad, fmt.Sprintf("constant %d is %v, reference has %v", i, got[i], want[i]))
			break
		}
	}
	return bad
}

// digest fingerprints a constant listing, for the identical-report
// check across iterations.
func digest(cs []constant) string {
	h := sha256.New()
	for _, c := range cs {
		fmt.Fprintf(h, "%s\x00%s\x00%s\n", c.Proc, c.Var, c.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkCells compares measured table cells against the paper's.
func checkCells(got, want map[string]string) []string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		if got[k] != want[k] {
			bad = append(bad, fmt.Sprintf("%s = %q, paper has %q", k, got[k], want[k]))
		}
	}
	return bad
}

// paperCells are the cells of the paper's Tables 1–4 and Figure 1 that
// the synthetic suite reproduces exactly (EXPERIMENTS.md).
var paperCells = map[string]string{
	"table1.ARG": "5758", "table1.IMM": "688", "table1.FI": "690", "table1.FS": "858",
	"table2.FP": "1043", "table2.FI": "49", "table2.FS": "76",
	"table3.IMM": "114", "table3.FI": "114", "table3.FS": "212",
	"table4.FP": "292", "table4.FS": "43",
	"figure1.FLOW-SENSITIVE":   "f1,f2,f3,f4,f5",
	"figure1.FLOW-INSENSITIVE": "f1,f3,f4",
	"figure1.LITERAL":          "f1,f3",
	"figure1.INTRA":            "f1,f3,f5",
	"figure1.PASS-THROUGH":     "f1,f3,f4,f5",
	"figure1.POLYNOMIAL":       "f1,f3,f4,f5",
}

// loadRef reads a stored reference trace; ok is false when none exists
// or it cannot be decoded.
func loadRef(path string) (*refTrace, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var ref refTrace
	if err := gob.NewDecoder(f).Decode(&ref); err != nil {
		return nil, false
	}
	return &ref, true
}

// storeRef writes a reference trace atomically.
func storeRef(path string, ref *refTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(ref); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
