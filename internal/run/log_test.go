package run

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

var errRefused = errors.New("log: refused")

// createRefusingLog takes every record until armed, then refuses the next
// create's: at Append, or — atWait — at Wait, after parking an Await on the
// run while the store still holds it.
type createRefusingLog struct {
	atWait bool
	armed  bool
	store  *Store
	id     string     // the refused run
	parked chan error // the parked Await's outcome
}

// refusedTicket marks the refused create's record.
const refusedTicket = 1

func (l *createRefusingLog) Append(op Op, r *Run) (uint64, error) {
	if !l.armed || op != OpCreate {
		return 0, nil
	}
	l.id = r.ID
	if !l.atWait {
		return 0, errRefused
	}
	return refusedTicket, nil
}

func (l *createRefusingLog) Wait(ticket uint64) error {
	if ticket != refusedTicket {
		return nil
	}
	ctx := &doneSpy{Context: context.Background(), called: make(chan struct{})}
	go func() {
		_, err := l.store.Await(ctx, l.id)
		l.parked <- err
	}()
	<-ctx.called
	return errRefused
}

func (l *createRefusingLog) Close() error { return nil }

// doneSpy tells when Await has reached its select: the first call to Done.
type doneSpy struct {
	context.Context
	called chan struct{}
	once   sync.Once
}

func (c *doneSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.called) })
	return c.Context.Done()
}

// stallingLog holds the record it is handed once armed until release is
// closed, the way a large record's encode or a segment rotation holds up
// an append.
type stallingLog struct {
	entered, release chan struct{} // nil: unarmed
}

func (l *stallingLog) Append(Op, *Run) (uint64, error) {
	if l.entered != nil {
		close(l.entered)
		l.entered = nil
		<-l.release
	}
	return 0, nil
}

func (l *stallingLog) Wait(uint64) error { return nil }
func (l *stallingLog) Close() error      { return nil }

// TestReadsDoNotWaitOnTheLog: while the log is still taking one record,
// every read — and EvictTerminal, which logs nothing — goes ahead.
func TestReadsDoNotWaitOnTheLog(t *testing.T) {
	log := &stallingLog{}
	s := NewStore(log)
	done := mustCreate(t, s, pipelineSpec())
	if _, err := s.Begin(done.ID, time.Now(), "", func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(done.ID, &Result{Match: true}, nil); err != nil {
		t.Fatal(err)
	}
	queued := mustCreate(t, s, pipelineSpec())

	entered, release := make(chan struct{}), make(chan struct{})
	log.entered, log.release = entered, release
	created := make(chan error, 1)
	go func() {
		_, err := s.Create(pipelineSpec())
		created <- err
	}()
	<-entered

	reads := make(chan struct{})
	go func() {
		defer close(reads)
		s.Get(done.ID)
		s.List()
		s.Len()
		s.CountByState()
		s.Await(context.Background(), done.ID)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.Await(ctx, queued.ID)
		s.EvictTerminal(1)
	}()
	select {
	case <-reads:
	case <-time.After(5 * time.Second):
		t.Fatal("reads waited on a record the log was still taking")
	}
	close(release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
}

// leadCheckingLog checks at every append that the store already holds what
// the record says: a log may snapshot the store (compact) right after any
// append, and that snapshot must cover the record. Armed with runs, it
// also checks the store's size at the first append.
type leadCheckingLog struct {
	t     *testing.T
	store *Store
	runs  int
}

func (l *leadCheckingLog) Append(op Op, r *Run) (uint64, error) {
	if got, err := l.store.Get(r.ID); err != nil || !reflect.DeepEqual(got, *r) {
		l.t.Errorf("%s of %s logged ahead of memory: the store holds %+v (%v)", op, r.ID, got, err)
	}
	if l.runs > 0 {
		if n := l.store.Len(); n != l.runs {
			l.t.Errorf("first record logged with %d runs in the store, want all %d", n, l.runs)
		}
		l.runs = 0
	}
	return 0, nil
}

func (l *leadCheckingLog) Wait(uint64) error { return nil }
func (l *leadCheckingLog) Close() error      { return nil }

// TestMemoryLeadsTheLog: every transition is in memory before its record
// reaches the log, and Recover restores every replayed run before it logs
// the first one it re-admits.
func TestMemoryLeadsTheLog(t *testing.T) {
	must := func(_ Run, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	log := &leadCheckingLog{t: t}
	s := NewStore(log)
	log.store = s
	a := mustCreate(t, s, pipelineSpec())
	must(s.Begin(a.ID, time.Now(), "", func() {}))
	must(s.Cancel(a.ID))
	must(s.Finish(a.ID, nil, context.Canceled))
	must(s.Cancel(mustCreate(t, s, pipelineSpec()).ID))
	c := mustCreate(t, s, pipelineSpec())
	must(s.Begin(c.ID, time.Now(), "", func() {}))
	must(s.Requeue(c.ID))
	must(s.Begin(mustCreate(t, s, pipelineSpec()).ID, time.Now(), "", func() {}))
	mustCreate(t, s, pipelineSpec())

	replayed := s.List() // two terminal, one running, two queued
	log2 := &leadCheckingLog{t: t, runs: len(replayed)}
	s2 := NewStore(log2)
	log2.store = s2
	if _, err := s2.Recover(replayed); err != nil {
		t.Fatal(err)
	}
}

// TestCreateRefusedByLogLeavesNoTrace: a run whose create record the log
// refuses — at the append or at the wait — was never admitted. Create
// returns the log's error, the run is gone, the rest of the store is as it
// was, and an Await that found the run in the meantime returns.
func TestCreateRefusedByLogLeavesNoTrace(t *testing.T) {
	for _, atWait := range []bool{false, true} {
		log := &createRefusingLog{atWait: atWait, parked: make(chan error, 1)}
		s := NewStore(log)
		log.store = s
		done := mustCreate(t, s, pipelineSpec())
		if _, err := s.Begin(done.ID, time.Now(), "", func() {}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Finish(done.ID, &Result{Match: true}, nil); err != nil {
			t.Fatal(err)
		}
		mustCreate(t, s, pipelineSpec())
		ids := func() (out []string) {
			for _, r := range s.List() {
				out = append(out, r.ID)
			}
			return out
		}
		before, counts := ids(), s.CountByState()

		log.armed = true
		if r, err := s.Create(pipelineSpec()); !errors.Is(err, errRefused) {
			t.Fatalf("atWait=%v: Create = %+v, %v; want the log's error", atWait, r, err)
		}
		if _, err := s.Get(log.id); !errors.Is(err, ErrNotFound) {
			t.Errorf("atWait=%v: Get(refused run) = %v, want ErrNotFound", atWait, err)
		}
		if after := ids(); !reflect.DeepEqual(after, before) {
			t.Errorf("atWait=%v: List = %v, want %v", atWait, after, before)
		}
		if got := s.CountByState(); !reflect.DeepEqual(got, counts) {
			t.Errorf("atWait=%v: CountByState = %v, want %v", atWait, got, counts)
		}
		if !atWait {
			continue
		}
		select {
		case err := <-log.parked:
			if err != nil {
				t.Errorf("parked Await = %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an Await parked on the refused run never returned")
		}
	}
}
