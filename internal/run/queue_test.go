package run

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/gen"
	"github.com/paper-repo-growth/conf_micro_daglisunbfg16/internal/tenant"
)

// The ops a FuzzStoreQueues program is made of: one byte each, followed by
// an argument byte.
const (
	qCreate = iota
	qAdmit
	qBegin
	qBeginNext
	qCancel
	qRequeue
	qFinish
	qEvict
	qRecover
	qOps
)

// queueTenants are the tenants a program's runs belong to: two that own a
// queue, the catch-all default, and one that is not configured and so
// waits in the default's queue.
var queueTenants = []string{"alpha", "beta", tenant.Default, "ghost"}

// queueSim drives one store through a program and keeps what the store's
// queues must agree with: the order in which runs became queued.
type queueSim struct {
	t      *testing.T
	s      *Store
	ids    []string
	seq    map[string]int // when each run last became queued
	next   int
	queues []*Queue // the routed tenants' queues, as a dispatcher holds them
}

// route gives the configured tenants their queues, as dispatch.New does.
func (m *queueSim) route() {
	m.queues = []*Queue{m.s.Queue("alpha"), m.s.Queue("beta"), m.s.Queue(tenant.Default)}
}

func (m *queueSim) id(arg byte) string {
	if len(m.ids) == 0 {
		return "none"
	}
	return m.ids[int(arg)%len(m.ids)]
}

func (m *queueSim) state(id string) State {
	r, err := m.s.Get(id)
	if err != nil {
		return -1
	}
	return r.State
}

// queued records that id became queued now.
func (m *queueSim) queued(id string) {
	m.next++
	m.seq[id] = m.next
}

func (m *queueSim) step(op, arg byte) {
	spec := Spec{Config: gen.Config{Shape: gen.Pipeline, Stages: 3, Width: 2, GenVersion: gen.CurrentVersion}}
	spec.Tenant = queueTenants[int(arg)%len(queueTenants)]
	id := m.id(arg)
	before := m.state(id)
	switch op % qOps {
	case qCreate:
		r, err := m.s.Create(spec)
		if err != nil {
			m.t.Fatalf("Create: %v", err)
		}
		m.ids = append(m.ids, r.ID)
		m.queued(r.ID)
	case qAdmit:
		depth := int(arg>>2) % 4
		r, err := m.s.Admit(spec, depth)
		if errors.Is(err, ErrQueueFull) {
			var n int
			m.s.View(func() { n = m.s.queueOf(spec.Tenant).Len() })
			if depth == 0 || n < depth {
				m.t.Fatalf("Admit(depth %d) refused with %d queued", depth, n)
			}
			return
		}
		if err != nil {
			m.t.Fatalf("Admit: %v", err)
		}
		m.ids = append(m.ids, r.ID)
		m.queued(r.ID)
	case qBegin:
		if _, err := m.s.Begin(id, time.Now(), "w", func() {}); (err == nil) != (before == StateQueued) {
			m.t.Fatalf("Begin(%s %s) = %v", before, id, err)
		}
	case qBeginNext:
		m.beginNext(int(arg))
	case qCancel:
		r, err := m.s.Cancel(id)
		if (err == nil) != (before == StateQueued || before == StateRunning) {
			m.t.Fatalf("Cancel(%s %s) = %v", before, id, err)
		}
		if before == StateQueued && r.State != StateCancelled {
			m.t.Fatalf("Cancel(queued %s) left it %s", id, r.State)
		}
	case qRequeue:
		r, err := m.s.Requeue(id)
		if (err == nil) != (before == StateRunning) {
			m.t.Fatalf("Requeue(%s %s) = %v", before, id, err)
		}
		if err == nil && r.State == StateQueued {
			m.queued(id)
		}
	case qFinish:
		if _, err := m.s.Finish(id, &Result{Match: true}, nil); (err == nil) != (before == StateRunning) {
			m.t.Fatalf("Finish(%s %s) = %v", before, id, err)
		}
	case qEvict:
		m.s.EvictTerminal(int(arg) % 4)
	case qRecover:
		// A restart: a fresh store replays this one's runs, then a
		// dispatcher routes its tenants.
		replayed := m.s.List()
		m.s = NewMemStore()
		if _, err := m.s.Recover(replayed); err != nil {
			m.t.Fatalf("Recover: %v", err)
		}
		m.route()
		for _, r := range m.s.List() { // CompareRuns order: the order Recover links
			if r.State == StateQueued {
				m.queued(r.ID)
			}
		}
	}
}

// beginNext picks the first non-empty routed queue from a rotating start,
// as a policy would, and checks the run begun is that queue's head.
func (m *queueSim) beginNext(start int) {
	var want string
	pick := func() *Queue {
		for i := range m.queues {
			if q := m.queues[(start+i)%len(m.queues)]; q.Len() > 0 {
				want = q.fifo.Front().Value.(*tracked).run.ID
				return q
			}
		}
		return nil
	}
	// An expired context: BeginNext takes what the pick finds and never
	// waits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, _, err := m.s.BeginNext(ctx, pick, "w", func(string) {})
	switch {
	case want == "" && !errors.Is(err, context.Canceled):
		m.t.Fatalf("BeginNext with nothing queued = %+v, %v", r, err)
	case want != "" && (err != nil || r.ID != want || r.State != StateRunning):
		m.t.Fatalf("BeginNext = %s %s, %v; want the picked head %s running", r.ID, r.State, err, want)
	}
}

// check asserts the queue invariants: every queued run is in exactly one
// FIFO, its tenant's (the default's for an unconfigured tenant), and
// nothing else is in any FIFO; each FIFO is in the order its runs became
// queued; each queue's running count is its runs running; nothing is
// left being admitted.
func (m *queueSim) check() {
	s := m.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	inFIFO := map[*tracked]bool{}
	running := map[*Queue]int{}
	for name, q := range s.queues {
		last := 0
		for e := q.fifo.Front(); e != nil; e = e.Next() {
			t := e.Value.(*tracked)
			if s.runs[t.run.ID] != t || t.run.State != StateQueued || t.queued != e || t.q != q {
				m.t.Fatalf("queue %s holds %s in state %s (stored %v, own element %v, own queue %v)",
					name, t.run.ID, t.run.State, s.runs[t.run.ID] == t, t.queued == e, t.q == q)
			}
			if inFIFO[t] {
				m.t.Fatalf("%s is in two FIFOs", t.run.ID)
			}
			inFIFO[t] = true
			if seq := m.seq[t.run.ID]; seq <= last {
				m.t.Fatalf("queue %s out of order at %s (queued #%d after #%d)", name, t.run.ID, seq, last)
			} else {
				last = seq
			}
		}
		if q.creating != 0 {
			m.t.Fatalf("queue %s counts %d admissions with none in flight", name, q.creating)
		}
	}
	for id, t := range s.runs {
		switch t.run.State {
		case StateQueued:
			if !inFIFO[t] || t.q != s.queueOf(t.run.Spec.Tenant) {
				m.t.Fatalf("queued run %s of tenant %s is not in its tenant's FIFO", id, t.run.Spec.Tenant)
			}
		case StateRunning:
			running[s.queueOf(t.run.Spec.Tenant)]++
		}
	}
	for name, q := range s.queues {
		if q.running != running[q] {
			m.t.Fatalf("queue %s counts %d running, the store holds %d", name, q.running, running[q])
		}
	}
}

// FuzzStoreQueues drives a store with random programs of every transition
// that moves a run in or out of a tenant queue, over tenants that own a
// queue and one that does not, and checks the queue invariants after every
// step.
func FuzzStoreQueues(f *testing.F) {
	for op := byte(0); op < qOps; op++ {
		// Runs of every tenant, two of them begun, then the op on each.
		prog := []byte{qCreate, 0, qCreate, 1, qCreate, 2, qCreate, 3, qBegin, 1, qBeginNext, 0}
		for arg := byte(0); arg < 4; arg++ {
			prog = append(prog, op, arg)
		}
		f.Add(prog)
	}
	// One run through every move between queued and running, with a
	// restart in the middle: begun, requeued, recovered, begun again by a
	// pick, finished, then a queued run of the unconfigured tenant
	// cancelled and the history evicted.
	f.Add([]byte{qCreate, 0, qCreate, 3, qBegin, 0, qRequeue, 0, qRecover, 0, qBeginNext, 0, qFinish, 0, qCancel, 1, qEvict, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 128 {
			prog = prog[:128]
		}
		m := &queueSim{t: t, s: NewMemStore(), seq: map[string]int{}}
		m.route()
		for i := 0; i+1 < len(prog); i += 2 {
			m.step(prog[i], prog[i+1])
			m.check()
		}
	})
}
