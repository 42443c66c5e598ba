package driver

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestManagerRunsInDependencyOrder(t *testing.T) {
	m := NewManager()
	var order []string
	step := func(name string) func(*PassStats) error {
		return func(*PassStats) error {
			order = append(order, name)
			return nil
		}
	}
	// Registered out of order on purpose.
	m.Add(Pass{Name: "c", Deps: []string{"b"}, Run: step("c")})
	m.Add(Pass{Name: "a", Run: step("a")})
	m.Add(Pass{Name: "b", Deps: []string{"a"}, Run: step("b")})
	m.Add(Pass{Name: "d", Deps: []string{"a", "c"}, Run: step("d")})
	tr, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a,b,c,d" {
		t.Errorf("order = %s, want a,b,c,d", got)
	}
	if got := len(tr.Passes()); got != 4 {
		t.Errorf("recorded %d passes, want 4", got)
	}
}

func TestManagerErrors(t *testing.T) {
	run := func(*PassStats) error { return nil }

	m := NewManager()
	m.Add(Pass{Name: "a", Run: run})
	m.Add(Pass{Name: "a", Run: run})
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: err = %v", err)
	}

	m = NewManager()
	m.Add(Pass{Name: "a", Deps: []string{"ghost"}, Run: run})
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown dep: err = %v", err)
	}

	m = NewManager()
	m.Add(Pass{Name: "a", Deps: []string{"b"}, Run: run})
	m.Add(Pass{Name: "b", Deps: []string{"a"}, Run: run})
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle: err = %v", err)
	}
}

func TestManagerAbortsOnPassError(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	m := NewManager()
	m.Add(Pass{Name: "a", Run: func(*PassStats) error { return boom }})
	m.Add(Pass{Name: "b", Deps: []string{"a"}, Run: func(*PassStats) error { ran = true; return nil }})
	tr, err := m.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if ran {
		t.Error("pass b ran after a failed")
	}
	// The failing pass itself is still recorded.
	if got := len(tr.Passes()); got != 1 {
		t.Errorf("recorded %d passes, want 1", got)
	}
}

func TestNilTrace(t *testing.T) {
	var tr *Trace
	ran := false
	tr.Time("x", func(st *PassStats) { ran = true; st.Procs = 3 })
	tr.Record(PassStats{Name: "y"})
	if !ran {
		t.Error("Time must run f on a nil trace")
	}
	if tr.Passes() != nil || tr.Total() != 0 {
		t.Error("nil trace must stay empty")
	}
}

func TestTraceTableAggregates(t *testing.T) {
	tr := NewTrace()
	tr.Record(PassStats{Name: "FS", Wall: time.Millisecond, Procs: 10})
	tr.Record(PassStats{Name: "FS", Wall: time.Millisecond, Procs: 5, Notes: "workers=2"})
	tr.Record(PassStats{Name: "parse", Wall: time.Millisecond})
	table := tr.Table()
	if !strings.Contains(table, "FS") || !strings.Contains(table, "workers=2") {
		t.Errorf("table missing aggregated row:\n%s", table)
	}
	// Two FS records aggregate into one row: header + FS + parse + total.
	if got := strings.Count(table, "\n"); got != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", got, table)
	}
	if tr.Total() != 3*time.Millisecond {
		t.Errorf("Total = %v, want 3ms", tr.Total())
	}
}

func TestLevelsLongestPathLayering(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2, 2 -> 3, 4 isolated.
	deps := map[int][]int{1: {0}, 2: {0}, 3: {1, 2}}
	levels := Levels(5, func(i int) []int { return deps[i] })
	want := [][]int{{0, 4}, {1, 2}, {3}}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
	for i := range want {
		if len(levels[i]) != len(want[i]) {
			t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
		}
		for j := range want[i] {
			if levels[i][j] != want[i][j] {
				t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
			}
		}
	}
	if MaxWidth(levels) != 2 {
		t.Errorf("MaxWidth = %d, want 2", MaxWidth(levels))
	}
}

func TestLevelsSelfAndDuplicateDeps(t *testing.T) {
	// Self-deps are ignored; duplicate edges must not wedge the layering.
	levels := Levels(2, func(i int) []int {
		if i == 1 {
			return []int{0, 0, 1}
		}
		return nil
	})
	if len(levels) != 2 || levels[0][0] != 0 || levels[1][0] != 1 {
		t.Errorf("levels = %v, want [[0] [1]]", levels)
	}
}

func TestLevelsPanicsOnCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on cycle")
		}
	}()
	Levels(2, func(i int) []int { return []int{1 - i} })
}

func TestWavefrontRespectsLevelBarriers(t *testing.T) {
	// 3 levels; every item records the level counter value it observed.
	levels := [][]int{{0, 1, 2, 3}, {4, 5}, {6}}
	levelOf := []int32{0, 0, 0, 0, 1, 1, 2}
	var current atomic.Int32
	current.Store(-1)
	var mu sync.Mutex
	seen := make(map[int]int32)
	done := make(map[int32]int)
	Wavefront(levels, 4, func(item int) {
		mu.Lock()
		if done[levelOf[item]] == 0 {
			current.Add(1)
		}
		done[levelOf[item]]++
		seen[item] = current.Load()
		mu.Unlock()
	})
	for item, lv := range seen {
		if lv != levelOf[item] {
			t.Errorf("item %d observed level %d, want %d (barrier violated)", item, lv, levelOf[item])
		}
	}
	if len(seen) != 7 {
		t.Errorf("ran %d items, want 7", len(seen))
	}
}

func TestParallelRunsAll(t *testing.T) {
	var n atomic.Int64
	hit := make([]atomic.Bool, 100)
	Parallel(100, 8, func(i int) {
		n.Add(1)
		hit[i].Store(true)
	})
	if n.Load() != 100 {
		t.Errorf("ran %d items, want 100", n.Load())
	}
	for i := range hit {
		if !hit[i].Load() {
			t.Errorf("item %d never ran", i)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("Workers(3) != 3")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("Workers must default to at least 1")
	}
}

func TestManagerMemo(t *testing.T) {
	memo := NewMemo()
	fp := "v1"
	runs, reuses := 0, 0
	build := func() *Manager {
		m := NewManager()
		m.SetMemo(memo)
		m.Add(Pass{
			Name:        "work",
			Run:         func(st *PassStats) error { runs++; return nil },
			Fingerprint: func() string { return fp },
			Reuse:       func(st *PassStats) error { reuses++; return nil },
		})
		return m
	}

	// First run: fingerprint unknown, Run executes and the key is stored.
	tr, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || reuses != 0 {
		t.Fatalf("cold run: runs=%d reuses=%d, want 1/0", runs, reuses)
	}
	if tr.Passes()[0].Cached {
		t.Error("cold run recorded Cached=true")
	}

	// Same fingerprint: Reuse executes instead of Run.
	tr, err = build().Run()
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || reuses != 1 {
		t.Fatalf("warm run: runs=%d reuses=%d, want 1/1", runs, reuses)
	}
	if !tr.Passes()[0].Cached {
		t.Error("warm run did not record Cached=true")
	}

	// Changed fingerprint: Run executes again and the new key replaces
	// the old one.
	fp = "v2"
	if _, err := build().Run(); err != nil {
		t.Fatal(err)
	}
	if runs != 2 || reuses != 1 {
		t.Fatalf("changed run: runs=%d reuses=%d, want 2/1", runs, reuses)
	}
	if _, err := build().Run(); err != nil {
		t.Fatal(err)
	}
	if runs != 2 || reuses != 2 {
		t.Fatalf("re-warm run: runs=%d reuses=%d, want 2/2", runs, reuses)
	}
}

func TestManagerMemoFailedRunNotRecorded(t *testing.T) {
	memo := NewMemo()
	fail := true
	runs := 0
	build := func() *Manager {
		m := NewManager()
		m.SetMemo(memo)
		m.Add(Pass{
			Name: "work",
			Run: func(st *PassStats) error {
				runs++
				if fail {
					return errors.New("boom")
				}
				return nil
			},
			Fingerprint: func() string { return "k" },
			Reuse:       func(st *PassStats) error { t.Fatal("Reuse after failed run"); return nil },
		})
		return m
	}
	if _, err := build().Run(); err == nil {
		t.Fatal("want error from failing pass")
	}
	// The failed run must not have recorded its fingerprint: the next
	// run with the same key still executes Run.
	fail = false
	if _, err := build().Run(); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs=%d, want 2 (failure not memoized)", runs)
	}
}

// TestManagerMemoRecordsOnlyCompleteRuns asserts a pass that succeeded
// in a run a later pass failed is not memoized either: the memo must
// describe the last complete run, whose outputs Reuse reinstalls.
func TestManagerMemoRecordsOnlyCompleteRuns(t *testing.T) {
	memo := NewMemo()
	fail := true
	runs := 0
	build := func() *Manager {
		m := NewManager()
		m.SetMemo(memo)
		m.Add(Pass{
			Name:        "first",
			Run:         func(st *PassStats) error { runs++; return nil },
			Fingerprint: func() string { return "k" },
			Reuse:       func(st *PassStats) error { t.Error("Reuse of a pass from a failed run"); return nil },
		})
		m.Add(Pass{
			Name: "second",
			Deps: []string{"first"},
			Run: func(st *PassStats) error {
				if fail {
					return errors.New("boom")
				}
				return nil
			},
		})
		return m
	}
	if _, err := build().Run(); err == nil {
		t.Fatal("want error from failing pass")
	}
	fail = false
	if _, err := build().Run(); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs=%d, want 2 (failed run not memoized)", runs)
	}
}

func TestManagerMemoRequiresBothHooks(t *testing.T) {
	memo := NewMemo()
	runs := 0
	build := func() *Manager {
		m := NewManager()
		m.SetMemo(memo)
		// Fingerprint without Reuse: memoization must not engage.
		m.Add(Pass{
			Name:        "half",
			Run:         func(st *PassStats) error { runs++; return nil },
			Fingerprint: func() string { return "k" },
		})
		return m
	}
	for i := 0; i < 2; i++ {
		if _, err := build().Run(); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 2 {
		t.Fatalf("runs=%d, want 2 (no Reuse hook)", runs)
	}
}

func TestTableCacheColumns(t *testing.T) {
	tr := NewTrace()
	tr.Record(PassStats{Name: "fs", Hits: 3, Misses: 1})
	tr.Record(PassStats{Name: "fs", Hits: 2, Misses: 0, Cached: true})
	tab := tr.Table()
	if !strings.Contains(tab, "cache=5/6") {
		t.Errorf("table missing aggregated cache hits:\n%s", tab)
	}
	if !strings.Contains(tab, "cached=1/2") {
		t.Errorf("table missing cached-run count:\n%s", tab)
	}
}
