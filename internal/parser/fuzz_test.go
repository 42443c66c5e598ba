package parser

import (
	"testing"

	"fsicp/internal/ast"
	"fsicp/internal/driver"
	"fsicp/internal/irbuild"
	"fsicp/internal/progen"
	"fsicp/internal/sem"
	"fsicp/internal/source"
)

// FuzzParse: the parser must never panic or hang on arbitrary input.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"program p\nproc main() {}",
		"program p\nglobal g int = -3\nproc main() { use g\n print g }",
		"program p\nproc main() { var x int = 1\n while x < 10 { x = x * 2 } }",
		"program p\nfunc f(a int) int { return a + 1 }\nproc main() { print f(1) }",
		"program \x00\xff",
		"program p proc main() { if true { } else if false { } else { } }",
		"program p\nproc main() { call main() }",
		"program p\nproc main() { x = ((((1)))) }",
		"program p\nproc main() { print \"unterminated",
		"program p\nproc main() { for i = 1, 10, -2 { break } }",
		"1e99e99e99",
		"program p\nproc main() { var r real = .5e-3 }",
		// Adversarial shapes from the facade robustness audit
		// (robustness_test.go at the repo root exercises the same
		// inputs, scaled up, through Load and Session.Update).
		"program p\nproc main() { print 999999999999999999999999999999 }",
		"program p\nproc main() { var x int = 1/0\n print x }",
		"program p\nprogram p\nprogram p\nproc main() {}",
		" \t\n\r\n ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse("fuzz.mf", src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must also survive formatting and reparsing.
		text := ast.Format(prog)
		if _, err := Parse("fuzz2.mf", text); err != nil {
			t.Fatalf("formatted output does not reparse: %v\ninput: %q\nformatted:\n%s", err, src, text)
		}
	})
}

// FuzzPipeline: anything that parses and checks must lower and format
// deterministically, and the sharded semantic check must agree with
// the serial one: the same diagnostics, or the same lowered program.
func FuzzPipeline(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(progen.Generate(progen.Config{Seed: seed, AllowRecursion: true, AllowFloats: true}))
	}
	f.Add("program p\nproc main(a int) { x = 1 }\nproc f() { break }\nproc f() {}\nfunc g() int { return 1.5 }")
	f.Fuzz(func(t *testing.T, src string) {
		file := source.NewFile("fuzz.mf", src)
		prog, err := ParseFile(file)
		if err != nil {
			return
		}
		sp, err := sem.Check(prog, file)
		// The check records resolution on the syntax nodes, so the
		// sharded check gets a parse of its own.
		again, err2 := ParseFile(file)
		if err2 != nil {
			t.Fatalf("second parse failed: %v", err2)
		}
		sc := sem.Begin(again, file)
		driver.Parallel(sc.NumProcs(), 4, sc.CheckProc)
		sp2, err2 := sc.Finish()
		if err != nil || err2 != nil {
			if err == nil || err2 == nil || err.Error() != err2.Error() {
				t.Fatalf("serial and sharded checks disagree:\nserial: %v\nsharded: %v", err, err2)
			}
			return
		}
		ir1, err := irbuild.Build(sp)
		if err != nil {
			return // for-step restriction; rejection is fine
		}
		ir2, err := irbuild.Build(sp2)
		if err != nil {
			t.Fatalf("lowering the sharded check failed: %v", err)
		}
		if d1, d2 := ir1.Dump(), ir2.Dump(); d1 != d2 {
			t.Fatalf("serial and sharded checks lower differently:\n--- serial ---\n%s\n--- sharded ---\n%s", d1, d2)
		}
		a := ast.Format(prog)
		prog2, err := Parse("fuzz2.mf", a)
		if err != nil {
			t.Fatalf("format of checked program does not reparse: %v\n%s", err, a)
		}
		b := ast.Format(prog2)
		if a != b {
			t.Fatalf("format not idempotent:\n--- a ---\n%s\n--- b ---\n%s", a, b)
		}
	})
}
