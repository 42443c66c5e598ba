// Byte-determinism of the analysis-phase scaling machinery: the
// delta-propagation skips in the iterative and returns-refresh
// fixpoints, and the pooled per-run scratch every analysis reuses, are
// performance features, so their output must be indistinguishable from
// a skip-free first run — for every method, at every worker count.
package fsicp_test

import (
	"fmt"
	"strings"
	"testing"

	fsicp "fsicp"
)

// sevenMethods is the Config-method matrix: the three Methods, plus
// the §3.2 returns extension and the returns refresh pass for both
// flow-sensitive variants (the refresh is where the delta-skip
// substitution happens, so it must be in the matrix). The four
// jump-function baselines that complete the CLI's seven-method set
// are covered separately below — they take no worker or skip knobs.
func sevenMethods() []fsicp.Config {
	return []fsicp.Config{
		{Method: fsicp.FlowInsensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true},
		{Method: fsicp.FlowSensitive, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true, ReturnConstants: true},
		{Method: fsicp.FlowSensitiveIterative, PropagateFloats: true, ReturnConstants: true, ReturnsRefresh: true},
	}
}

func cfgName(cfg fsicp.Config) string {
	n := cfg.Method.String()
	if cfg.ReturnConstants {
		n += "+returns"
	}
	if cfg.ReturnsRefresh {
		n += "+refresh"
	}
	return n
}

// TestSpillAndDeltaSkipDeterminism compares, on the 2k-procedure
// corpus, the baseline report (delta skipping on, one worker) against
// the default skip-on path (the spill0/workers=N subtests) and the
// skip-free path (noskip/workers=N: FSICP_NO_DELTA_SKIP forces every
// fixpoint round and refresh visit to re-evaluate), each at workers 1,
// 2, 4, and 8. Any divergence means a fast path is changing answers,
// not just time. Meant to run under -race (scripts/check.sh has a
// dedicated stage); it skips under -short to stay out of the quick
// suite.
func TestSpillAndDeltaSkipDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-procedure corpus × 7 methods × 4 worker counts; skipped with -short")
	}
	files, _ := corpus2k()
	prog, err := fsicp.LoadFiles(asSourceFiles(files), fsicp.LoadOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sevenMethods() {
		cfg := cfg
		t.Run(cfgName(cfg), func(t *testing.T) {
			base := cfg
			base.Workers = 1
			want := fingerprint(prog.Analyze(base))

			for _, workers := range []int{1, 2, 4, 8} {
				run := cfg
				run.Workers = workers

				t.Run(fmt.Sprintf("spill0/workers=%d", workers), func(t *testing.T) {
					if got := fingerprint(prog.Analyze(run)); got != want {
						t.Error("a repeated analysis changed the report")
					}
				})

				t.Run(fmt.Sprintf("noskip/workers=%d", workers), func(t *testing.T) {
					t.Setenv("FSICP_NO_DELTA_SKIP", "1")
					if got := fingerprint(prog.Analyze(run)); got != want {
						t.Error("disabling delta-propagation skips changed the report")
					}
				})
			}
		})
	}

	// The jump-function baselines have no worker fan-out and no
	// fixpoint skips, but their intraprocedural scc.Run calls draw
	// scratch from the same pool; after the matrix above has warmed it
	// on this corpus, a repeated run must reproduce the first.
	// TestPooledScratchDeterminism covers the warm pool for the
	// flow-sensitive method only.
	for _, kind := range []fsicp.JumpFunctionKind{fsicp.Literal, fsicp.IntraConstant, fsicp.PassThrough, fsicp.Polynomial} {
		kind := kind
		t.Run("jump/"+kind.String(), func(t *testing.T) {
			want := jumpFingerprint(prog.AnalyzeJumpFunctions(kind))
			if got := jumpFingerprint(prog.AnalyzeJumpFunctions(kind)); got != want {
				t.Error("a repeated run changed the baseline report")
			}
		})
	}
}

func jumpFingerprint(a *fsicp.JumpAnalysis) string {
	var b strings.Builder
	for _, c := range a.Constants() {
		fmt.Fprintf(&b, "const %s.%s = %s (%s)\n", c.Proc, c.Var, c.Value, c.Kind)
	}
	fmt.Fprintf(&b, "subs %d\n", a.Substitutions())
	return b.String()
}
