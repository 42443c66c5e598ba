package main

import (
	"strings"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/interp"
	"fsicp/internal/tables"
)

// The tests feed every correctness check the benchmark relies on a
// corrupted result and show that the check rejects it, after showing
// that it accepts the unmodified one.

// figure1 returns Figure 1's FI and FS constants and its reference
// interpreter trace.
func figure1(t *testing.T) (fi, fs []constant, ref *refTrace) {
	t.Helper()
	p, err := fsicp.Load("figure1.mf", tables.Figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	fi = facadeConstants(p.Analyze(fsicp.Config{Method: fsicp.FlowInsensitive, PropagateFloats: true}).Constants())
	fs = facadeConstants(p.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true}).Constants())
	ctx, err := compileSource("figure1", tables.Figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	return fi, fs, newRefTrace(interp.Run(ctx.Prog, interp.Options{}))
}

// flipped returns cs with constant i's value changed.
func flipped(cs []constant, i int) []constant {
	out := append([]constant(nil), cs...)
	out[i].Value += "1"
	return out
}

// dropped returns cs without the constant for v.
func dropped(cs []constant, v string) []constant {
	var out []constant
	for _, c := range cs {
		if c.Var != v {
			out = append(out, c)
		}
	}
	return out
}

func TestSoundRejectsFlippedConstant(t *testing.T) {
	_, fs, ref := figure1(t)
	if bad := checkSound(fs, ref); len(bad) > 0 {
		t.Fatalf("unmodified FS result rejected: %v", bad)
	}
	if bad := checkSound(flipped(fs, 1), ref); len(bad) != 1 {
		t.Fatalf("flipped constant: got %v, want one violation", bad)
	}
}

func TestRefinesRejectsDroppedConstant(t *testing.T) {
	fi, fs, _ := figure1(t)
	if bad := checkRefines(fi, fs); len(bad) > 0 {
		t.Fatalf("unmodified FI ⊑ FS rejected: %v", bad)
	}
	if bad := checkRefines(fi, dropped(fs, "f4")); len(bad) != 1 {
		t.Fatalf("FS without f4: got %v, want one violation", bad)
	}
	if bad := checkRefines(fi, flipped(fs, 0)); len(bad) != 1 {
		t.Fatalf("FS with f1 flipped: got %v, want one violation", bad)
	}
}

// The served-versus-cold check and the identical-report check.
func TestSameRejectsCorruptedListing(t *testing.T) {
	_, fs, _ := figure1(t)
	if bad := checkSame(fs, fs); len(bad) > 0 {
		t.Fatalf("identical listings rejected: %v", bad)
	}
	if bad := checkSame(flipped(fs, 2), fs); len(bad) == 0 {
		t.Fatal("flipped constant accepted")
	}
	if bad := checkSame(dropped(fs, "f5"), fs); len(bad) == 0 {
		t.Fatal("dropped constant accepted")
	}
	if digest(fs) == digest(flipped(fs, 2)) || digest(fs) == digest(dropped(fs, "f5")) {
		t.Fatal("digest does not tell corrupted reports apart")
	}
}

func TestSweepRejectsWrongCells(t *testing.T) {
	suite := paperSuite()
	refs, err := suiteRefs(&run{}, suite)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]programOutput, len(suite))
	for i, sp := range suite {
		p, err := fsicp.Load(sp.name+".mf", sp.src)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = sweepProgram(nil, p, sp.floats)
	}
	if bad := checkSweep(suite, outs, refs); len(bad) > 0 {
		t.Fatalf("unmodified sweep rejected: %v", bad)
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(o *programOutput, table string) bool
	}{
		{"table cell", "table1.FS", func(o *programOutput, table string) bool {
			o.fsCalls.ConstArgs++
			return table == "spec"
		}},
		{"table 4 cell", "table4.FS", func(o *programOutput, table string) bool {
			o.fsEntry.ConstFormals--
			return table == "first"
		}},
		{"figure 1 set", "figure1.FLOW-SENSITIVE", func(o *programOutput, table string) bool {
			o.fs = dropped(o.fs, "f2")
			return table == "figure1"
		}},
		{"flipped constant", "claimed", func(o *programOutput, table string) bool {
			if table != "figure1" {
				return false
			}
			o.fs = flipped(o.fs, 0)
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]programOutput(nil), outs...)
			for i := range bad {
				o := bad[i]
				if tc.corrupt(&o, suite[i].table) {
					bad[i] = o
					break
				}
			}
			got := checkSweep(suite, bad, refs)
			if !strings.Contains(strings.Join(got, "\n"), tc.want) {
				t.Fatalf("corrupted %s: violations %v do not mention %q", tc.name, got, tc.want)
			}
		})
	}
}
