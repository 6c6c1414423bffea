package run

import (
	"sort"
	"testing"
	"time"
)

func runAt(id string, at time.Time) Run {
	return Run{ID: id, CreatedAt: at}
}

// TestCompareRunsOrder pins the shared comparator's contract directly:
// creation time first, ID as the tie-break, antisymmetric, and equal only
// on identical positions.
func TestCompareRunsOrder(t *testing.T) {
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	t1 := t0.Add(time.Nanosecond)
	cases := []struct {
		name string
		a, b Run
		want int
	}{
		{"earlier time wins", runAt("z", t0), runAt("a", t1), -1},
		{"later time loses", runAt("a", t1), runAt("z", t0), 1},
		{"tie broken by id", runAt("a", t0), runAt("b", t0), -1},
		{"tie broken by id reversed", runAt("b", t0), runAt("a", t0), 1},
		{"identical position", runAt("a", t0), runAt("a", t0), 0},
	}
	for _, tc := range cases {
		if got := CompareRuns(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: CompareRuns = %d, want %d", tc.name, got, tc.want)
		}
		// CompareToCursor must agree with CompareRuns when fed b's
		// position — it is the same order, just phrased against a cursor.
		if got := CompareToCursor(tc.a, tc.b.CreatedAt.UnixNano(), tc.b.ID); got != tc.want {
			t.Errorf("%s: CompareToCursor = %d, want %d (drifted from CompareRuns)", tc.name, got, tc.want)
		}
	}
}

// TestListCursorAndEvictionShareOrder is the anti-drift regression test:
// the List sort, a cursor walk, and eviction tie-breaking must all follow
// the one shared comparator. Before the comparator existed these were
// hand-rolled in three places; this test fails if any of them grows its
// own idea of order again.
func TestListCursorAndEvictionShareOrder(t *testing.T) {
	s := NewMemStore()
	for i := 0; i < 30; i++ {
		mustCreate(t, s, pipelineSpec())
	}
	list := s.List()

	// List order is exactly a CompareRuns sort.
	sorted := append([]Run(nil), list...)
	sort.Slice(sorted, func(i, j int) bool { return CompareRuns(sorted[i], sorted[j]) < 0 })
	for i := range list {
		if list[i].ID != sorted[i].ID {
			t.Fatalf("List order diverges from CompareRuns at %d", i)
		}
	}

	// A strictly-after cursor walk over List (the API's pagination filter)
	// visits every run exactly once, in the same order.
	var walked []Run
	nanos, id := int64(-1<<62), ""
	for {
		var p []Run
		for _, r := range s.List() {
			if CompareToCursor(r, nanos, id) > 0 {
				p = append(p, r)
				if len(p) == 7 {
					break
				}
			}
		}
		if len(p) == 0 {
			break
		}
		walked = append(walked, p...)
		nanos, id = p[len(p)-1].CreatedAt.UnixNano(), p[len(p)-1].ID
	}
	if len(walked) != len(list) {
		t.Fatalf("cursor walk visited %d runs, List has %d", len(walked), len(list))
	}
	for i := range walked {
		if walked[i].ID != list[i].ID {
			t.Fatalf("cursor walk order diverges from List at %d: %s != %s", i, walked[i].ID, list[i].ID)
		}
	}
}

// TestEvictionTieBreakDeterministic pins that terminal runs finishing at
// the same instant are evicted in CompareRuns order, not map order: with
// identical FinishedAt stamps, eviction keeps the runs that sort last.
func TestEvictionTieBreakDeterministic(t *testing.T) {
	s := NewMemStore()
	var ids []string
	for i := 0; i < 8; i++ {
		r := mustCreate(t, s, pipelineSpec())
		ids = append(ids, r.ID)
		if _, err := s.Begin(r.ID, time.Now(), "", func() {}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(r.ID, &Result{Match: true}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Force a full FinishedAt tie so only the comparator decides.
	now := time.Now().Round(0)
	for _, id := range ids {
		r, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		r.FinishedAt = &now
		s.Restore(r)
	}
	survivorsWant := make(map[string]bool)
	all := s.List() // CompareRuns order; the last 3 must survive EvictTerminal(3)
	for _, r := range all[len(all)-3:] {
		survivorsWant[r.ID] = true
	}
	if n := s.EvictTerminal(3); n != 5 {
		t.Fatalf("EvictTerminal(3) = %d, want 5", n)
	}
	for _, r := range s.List() {
		if !survivorsWant[r.ID] {
			t.Errorf("tie-break evicted the wrong run: %s survived, want %v", r.ID, survivorsWant)
		}
	}
}

// TestRestoreRefilesTerminalRun pins Restore over an existing terminal
// entry: the run moves to the place its new FinishedAt earns in the finish
// order and is counted once, so eviction neither double-counts it nor
// evicts by the stale stamp.
func TestRestoreRefilesTerminalRun(t *testing.T) {
	s := NewMemStore()
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	var runs []Run
	for i := 0; i < 4; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		r := Run{ID: string(rune('a' + i)), State: StateSucceeded, CreatedAt: t0, FinishedAt: &at}
		s.Restore(r)
		runs = append(runs, r)
	}
	// The oldest-finished run becomes the newest; the same snapshot twice
	// over must still be one entry.
	newest := t0.Add(time.Hour)
	runs[0].FinishedAt = &newest
	s.Restore(runs[0])
	s.Restore(runs[0])
	if n := s.EvictTerminal(4); n != 0 {
		t.Fatalf("EvictTerminal(4) over 4 runs = %d, want 0 (re-restored run double-counted)", n)
	}
	if n := s.EvictTerminal(2); n != 2 {
		t.Fatalf("EvictTerminal(2) = %d, want 2", n)
	}
	for i, r := range runs {
		_, err := s.Get(r.ID)
		if gone := i == 1 || i == 2; gone != (err != nil) {
			t.Errorf("run %s: Get = %v, want gone=%v", r.ID, err, gone)
		}
	}
	// A terminal entry restored as non-terminal leaves the finish order.
	runs[3].State, runs[3].FinishedAt = StateQueued, nil
	s.Restore(runs[3])
	if n := s.EvictTerminal(1); n != 0 {
		t.Errorf("EvictTerminal(1) = %d, want 0: only one terminal run is left", n)
	}
}
