package fsicp_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	fsicp "fsicp"
	"fsicp/internal/ast"
	"fsicp/internal/parser"
	"fsicp/internal/sem"
	"fsicp/internal/source"
)

// loadFingerprint renders everything the front end produces — the IR
// dump, the call graph, and all seven method tables (FS, FI, iterative,
// plus the four jump-function baselines) — into one string, so loads
// with different worker counts can be compared byte-for-byte.
func loadFingerprint(prog *fsicp.Program) string {
	var b strings.Builder
	b.WriteString(prog.DumpIR())
	b.WriteString(prog.DumpCallGraph())
	for _, cfg := range []fsicp.Config{
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
		{Method: fsicp.FlowInsensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
	} {
		a := prog.Analyze(cfg)
		fmt.Fprintf(&b, "== %s ==\n%s", cfg.Method, fingerprint(a))
	}
	for _, kind := range []fsicp.JumpFunctionKind{
		fsicp.Literal, fsicp.IntraConstant, fsicp.PassThrough, fsicp.Polynomial,
	} {
		j := prog.AnalyzeJumpFunctions(kind)
		fmt.Fprintf(&b, "== jump %s ==\n", kind)
		for _, c := range j.Constants() {
			fmt.Fprintf(&b, "const %s.%s = %s (%s)\n", c.Proc, c.Var, c.Value, c.Kind)
		}
		fmt.Fprintf(&b, "subst %d\n", j.Substitutions())
	}
	return b.String()
}

// TestLoadDeterministicAcrossWorkers asserts the sharded load pipeline
// is invisible in the result: for every worker count the IR dump, the
// call graph, and all seven method tables are byte-identical to the
// serial load. Run under -race this also exercises the shard fan-out
// for data races.
func TestLoadDeterministicAcrossWorkers(t *testing.T) {
	name, src := largestProgen()
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		prog, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := loadFingerprint(prog)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: load result diverged from workers=1", workers)
		}
	}
}

// TestLoadCancellation asserts a cancelled LoadContext fails with the
// context's error and drains every shard goroutine — nothing may keep
// lowering procedures after the caller has given up.
func TestLoadCancellation(t *testing.T) {
	name, src := largestProgen()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog, err := fsicp.LoadContext(ctx, name, src, fsicp.LoadOptions{Workers: 4})
	if err == nil {
		t.Fatal("cancelled load succeeded")
	}
	if prog != nil {
		t.Fatal("cancelled load returned a program alongside its error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("cancelled load error = %v, want a context.Canceled", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by cancelled load: %d before, %d after", before, after)
	}

	// The same source still loads fine with a live context.
	if _, err := fsicp.LoadContext(context.Background(), name, src, fsicp.LoadOptions{Workers: 4}); err != nil {
		t.Fatalf("follow-up load failed: %v", err)
	}
}

// TestLoadShardNotes asserts the sharded load passes report their
// fan-out ("shards=N workers=M") in the stats, and that the rendered
// table carries the notes without breaking its row alignment.
func TestLoadShardNotes(t *testing.T) {
	name, src := largestProgen()
	prog, err := fsicp.LoadWith(name, src, fsicp.LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Analyze(fsicp.Config{Method: fsicp.FlowSensitive, PropagateFloats: true})

	sharded := map[string]bool{"sem": false, "irbuild": false, "alias": false, "modref": false, "clobbers": false, "ssa": false}
	for _, st := range a.Stats() {
		if _, ok := sharded[st.Name]; !ok || st.Shards == 0 {
			continue
		}
		sharded[st.Name] = true
		if want := fmt.Sprintf("shards=%d workers=", st.Shards); !strings.Contains(st.Notes, want) {
			t.Errorf("pass %s: notes %q missing %q", st.Name, st.Notes, want)
		}
		if len(st.ShardWall) != st.Shards {
			t.Errorf("pass %s: %d shard wall times for %d shards", st.Name, len(st.ShardWall), st.Shards)
		}
	}
	for name, seen := range sharded {
		if !seen {
			t.Errorf("pass %s recorded no shards", name)
		}
	}

	table := a.StatsTable()
	if !strings.Contains(table, "shards=") {
		t.Errorf("stats table carries no shard notes:\n%s", table)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("stats table too short:\n%s", table)
	}
	// Every data row must start at the same column layout as the header
	// (left-aligned pass name, single-space separated columns) — a
	// shard note that broke the formatting would show up as a column
	// shift here.
	width := len(lines[0])
	for _, line := range lines[1:] {
		if len(line) < width-20 {
			t.Errorf("stats table row much narrower than header:\n%s", table)
			break
		}
	}
}

// TestSemDiagnosticsAcrossWorkers asserts the sharded semantic check
// reports a multi-file corpus's errors — in several procedures across
// files, plus a redeclared procedure and a main with parameters — with
// the same text at every worker count, and the same text as a serial
// sem.Check of the merged program.
func TestSemDiagnosticsAcrossWorkers(t *testing.T) {
	files := []fsicp.SourceFile{
		{Name: "main.mf", Src: `program multi
global g int = 1
proc main(a int) {
  use g
  call helper(1)
  x = 2
}
`},
		{Name: "one.mf", Src: `module one
proc helper(n int) {
  var y real
  y = n
}
proc helper(n int) {}
`},
		{Name: "two.mf", Src: `module two
func f(b bool) int {
  if b + 1 { }
  return 1.5
}
proc stray() { break }
`},
	}

	fset := source.NewFileSet()
	units := make([]*ast.Program, len(files))
	for i, sf := range files {
		u, err := parser.ParseUnit(fset.Add(sf.Name, sf.Src), fset)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = u
	}
	_, err := sem.Check(ast.MergeUnits(units), fset)
	if err == nil {
		t.Fatal("serial check accepted the corpus")
	}
	// Signature-level diagnostics first, then each body's in procedure
	// order, then the whole-program checks.
	const want = `one.mf:6:1: error: procedure "helper" redeclared (previous declaration at 98)
main.mf:6:3: error: undeclared variable "x"
one.mf:4:7: error: cannot assign int value to real variable "y"
two.mf:3:10: error: mismatched operand types bool and int for +
two.mf:4:10: error: func "f" returns int, cannot return real
two.mf:6:16: error: break outside loop
main.mf:3:1: error: 'main' must not declare parameters`
	if got := err.Error(); got != want {
		t.Fatalf("serial diagnostics:\n%s\nwant:\n%s", got, want)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		_, err := fsicp.LoadFiles(files, fsicp.LoadOptions{Workers: workers})
		var el *source.ErrorList
		if !errors.As(err, &el) {
			t.Fatalf("workers=%d: error %v carries no diagnostics", workers, err)
		}
		if got := el.Error(); got != want {
			t.Errorf("workers=%d: diagnostics differ from serial sem.Check\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}
