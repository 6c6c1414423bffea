package run

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// restore is Recover's insert, under the lock it is called with.
func restore(s *Store, r Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restore(r)
}

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
	// Force a full FinishedAt tie so only the comparator decides, restored
	// into a fresh store newest first.
	now := time.Now().Round(0)
	s2 := NewMemStore()
	for i := len(ids) - 1; i >= 0; i-- {
		r, err := s.Get(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		r.FinishedAt = &now
		restore(s2, r)
	}
	survivorsWant := make(map[string]bool)
	all := s2.List() // CompareRuns order; the last 3 must survive EvictTerminal(3)
	for _, r := range all[len(all)-3:] {
		survivorsWant[r.ID] = true
	}
	if n := s2.EvictTerminal(3); n != 5 {
		t.Fatalf("EvictTerminal(3) = %d, want 5", n)
	}
	for _, r := range s2.List() {
		if !survivorsWant[r.ID] {
			t.Errorf("tie-break evicted the wrong run: %s survived, want %v", r.ID, survivorsWant)
		}
	}
}

// TestRecoverOrdersHistoryAndQueues pins what Recover makes of a replay
// in any order: terminal runs are filed by their finish stamps, so
// eviction takes the oldest-finished first whatever the creation order,
// and queued runs are linked, and returned, oldest-created first.
func TestRecoverOrdersHistoryAndQueues(t *testing.T) {
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	var replay []Run
	// a..d are created in that order and finish in the reverse one.
	for i := 0; i < 4; i++ {
		at := t0.Add(time.Hour - time.Duration(i)*time.Minute)
		r := runAt(string(rune('a'+i)), t0.Add(time.Duration(i)*time.Second))
		r.State, r.FinishedAt = StateSucceeded, &at
		replay = append(replay, r)
	}
	var queued []string
	for i := 0; i < 3; i++ {
		r := runAt(string(rune('p'+i)), t0.Add(time.Duration(10+i)*time.Second))
		r.Spec = pipelineSpec()
		r.Spec.GenVersion = gen.CurrentVersion
		r.State = StateQueued
		replay = append(replay, r)
		queued = append(queued, r.ID)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(replay), func(i, j int) { replay[i], replay[j] = replay[j], replay[i] })

	s := NewMemStore()
	recovered, err := s.Recover(replay)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(queued) {
		t.Fatalf("Recover re-admitted %d runs, want %d", len(recovered), len(queued))
	}
	for i, r := range recovered {
		if r.ID != queued[i] || r.State != StateQueued || r.Restarts != 1 {
			t.Errorf("re-admitted #%d = %s %s restarts %d, want %s queued restarts 1", i, r.ID, r.State, r.Restarts, queued[i])
		}
	}
	q := s.Queue(tenant.Default)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, want := range queued {
		r, _, err := s.BeginNext(ctx, func() *Queue {
			if q.Len() > 0 {
				return q
			}
			return nil
		}, "w", func(string) {})
		if err != nil || r.ID != want {
			t.Fatalf("BeginNext = %s, %v; want the queue's head %s", r.ID, err, want)
		}
	}

	if n := s.EvictTerminal(2); n != 2 {
		t.Fatalf("EvictTerminal(2) = %d, want 2", n)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		_, err := s.Get(id)
		if gone := id == "c" || id == "d"; gone != (err != nil) {
			t.Errorf("run %s: Get = %v, want gone=%v (the two finished first)", id, err, gone)
		}
	}
}
