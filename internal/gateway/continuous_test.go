package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sesemi/internal/semirt"
)

// fakeSessionBackend implements Invoker + SessionOpener, emulating the
// runtime's step discipline (semirt.HandleStep) over the real step codec so
// dispatchSession is exercised against faithful preemption semantics.
type fakeSessionBackend struct {
	*fakeInvoker
	mu       sync.Mutex
	opened   int
	closes   int
	failOpen error
	gate     chan struct{} // when non-nil, the first frame waits until closed
	order    []string      // member payloads in completion order
	joins    []fakeJoin    // admissions in arrival order
	// crashAfter > 0 makes ONE session (the first to get there) fail its
	// frames past that count — the mid-session crash behind session-recovery
	// tests. Later sessions run clean.
	crashAfter int
	crashed    bool
}

type fakeJoin struct {
	payload   string
	stepsDone int
}

func newFakeSessionBackend() *fakeSessionBackend {
	return &fakeSessionBackend{fakeInvoker: newFakeInvoker()}
}

func (b *fakeSessionBackend) OpenSession(ctx context.Context, action, node string) (InvokeSession, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failOpen != nil {
		return nil, b.failOpen
	}
	b.opened++
	return &fakeSession{b: b, members: map[int]*fakeSessMember{}}, nil
}

type fakeSessMember struct {
	req          semirt.Request
	done, inSess int
}

type fakeSession struct {
	b       *fakeSessionBackend
	members map[int]*fakeSessMember
	ids     []int // admission order
	frames  int
}

func (s *fakeSession) Node() string { return "fake-node" }

func (s *fakeSession) Close() {
	s.b.mu.Lock()
	s.b.closes++
	s.b.mu.Unlock()
}

// Step advances every member one execution step, mirroring HandleStep: joins
// admitted first, over-budget members preempted at the boundary while the
// frame reports a backlog, members on their final step always finish.
func (s *fakeSession) Step(payload []byte) ([]byte, error) {
	var env struct {
		Step *semirt.StepFrame `json:"step"`
	}
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, err
	}
	if env.Step == nil {
		return nil, errors.New("fake session got a non-step payload")
	}
	f := env.Step
	if f.Close {
		return semirt.EncodeStepResponse(semirt.StepResponse{})
	}
	if s.frames == 0 && s.b.gate != nil {
		<-s.b.gate
	}
	s.frames++
	s.b.mu.Lock()
	crash := s.b.crashAfter > 0 && !s.b.crashed && s.frames > s.b.crashAfter
	if crash {
		s.b.crashed = true
	}
	s.b.mu.Unlock()
	if crash {
		return nil, errors.New("fake session: crashed mid-frame")
	}
	for _, j := range f.Join {
		s.b.mu.Lock()
		s.b.joins = append(s.b.joins, fakeJoin{payload: string(j.Req.Payload), stepsDone: j.Req.StepsDone})
		s.b.mu.Unlock()
		s.members[j.ID] = &fakeSessMember{req: j.Req, done: j.Req.StepsDone}
		s.ids = append(s.ids, j.ID)
	}
	var resp semirt.StepResponse
	keep := s.ids[:0]
	for _, id := range s.ids {
		m := s.members[id]
		total := m.req.ExecSteps
		if total < 1 {
			total = 1
		}
		switch {
		case total-m.done > 1 && f.Budget > 0 && m.inSess >= f.Budget && f.Waiting > 0:
			resp.Done = append(resp.Done, semirt.StepResult{
				ID: id, Err: semirt.ErrPreempted, Preempted: true, StepsDone: m.done})
			delete(s.members, id)
		case total-m.done > 1:
			m.done++
			m.inSess++
			keep = append(keep, id)
		default:
			resp.Done = append(resp.Done, semirt.StepResult{
				ID: id, Response: semirt.Response{Payload: m.req.Payload, Kind: semirt.Hot}})
			s.b.mu.Lock()
			s.b.order = append(s.b.order, string(m.req.Payload))
			s.b.mu.Unlock()
			delete(s.members, id)
		}
	}
	s.ids = keep
	resp.Active = len(s.members)
	return semirt.EncodeStepResponse(resp)
}

// TestContinuousSessionMidBatchAdmissionAndPreemption: a 6-step request
// batched with one short holds a session; three more shorts arrive behind it.
// Every short completes before the long request (mid-batch admission +
// preemption), the preempted member resumes with its progress, and every
// ticket is answered exactly once.
func TestContinuousSessionMidBatchAdmissionAndPreemption(t *testing.T) {
	b := newFakeSessionBackend()
	b.gate = make(chan struct{})
	g := New(Config{MaxBatch: 2, MaxWait: time.Hour, MaxInFlight: 1,
		Continuous: true, PreemptAfter: 2}, b)
	defer g.Close()

	submit := func(payload string, steps int) *Ticket {
		t.Helper()
		tk, err := g.Submit(context.Background(), Request{
			Action: "fn",
			Body:   semirt.Request{UserID: "u", ModelID: "m", Payload: []byte(payload), ExecSteps: steps},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	// long + s1 fill MaxBatch and open the session (its first frame blocks on
	// the gate); s2..s4 stack up behind it — the backlog that makes the long
	// member preemptable and feeds mid-batch admission.
	tks := []*Ticket{submit("long", 6), submit("s1", 1)}
	for i := 2; i <= 4; i++ {
		tks = append(tks, submit(fmt.Sprintf("s%d", i), 1))
	}
	close(b.gate)

	for i, tk := range tks {
		resp, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		want := "long"
		if i > 0 {
			want = fmt.Sprintf("s%d", i)
		}
		if string(resp.Payload) != want {
			t.Fatalf("ticket %d got %q, want %q", i, resp.Payload, want)
		}
	}

	b.mu.Lock()
	order, joins, opened := append([]string(nil), b.order...), append([]fakeJoin(nil), b.joins...), b.opened
	b.mu.Unlock()
	if len(order) != 5 || order[4] != "long" {
		t.Fatalf("completion order %v, want every short before the long member", order)
	}
	if opened != 1 {
		t.Fatalf("opened %d sessions, want 1 (mid-batch admission, not re-dispatch)", opened)
	}
	// The preempted member re-joined the same session carrying its progress:
	// its second admission resumes at 2 executed steps, not from scratch.
	resumed := false
	for _, j := range joins[2:] {
		if j.payload == "long" && j.stepsDone == 2 {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("long member never re-joined with progress: joins %+v", joins)
	}
	st := g.Stats()
	if st.Preemptions == 0 {
		t.Fatal("stats counted no preemptions")
	}
	if st.Served != 5 || st.Pending != 0 {
		t.Fatalf("stats %+v, want served=5 pending=0", st)
	}
}

// TestContinuousOpenFailureFailsBatch: when the session cannot open, every
// member of the formed batch is answered with the open error — the strand
// path mirrors dispatch's whole-batch fan-out.
func TestContinuousOpenFailureFailsBatch(t *testing.T) {
	b := newFakeSessionBackend()
	b.failOpen = errors.New("no capacity for a session")
	g := New(Config{MaxBatch: 2, MaxWait: time.Hour, Continuous: true}, b)
	defer g.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := g.Do(context.Background(), "fn", req("m", i))
			if err == nil || !strings.Contains(err.Error(), "no capacity") {
				t.Errorf("request %d: %v, want the open error", i, err)
			}
		}(i)
	}
	wg.Wait()
	if st := g.Stats(); st.Served != 2 || st.Pending != 0 {
		t.Fatalf("stats %+v, want served=2 pending=0", st)
	}
}

// TestContinuousFallsBackWithoutSessionSurface: Continuous against a backend
// with no session support degrades to form-then-fire dispatch.
func TestContinuousFallsBackWithoutSessionSurface(t *testing.T) {
	inv := newFakeInvoker()
	inv.block = make(chan struct{})
	inv.started = make(chan struct{}, 8)
	g := New(Config{MaxBatch: 2, MaxWait: time.Hour, Continuous: true}, inv)
	defer g.Close()

	// A held activation keeps the queue busy, so the next two form one batch.
	held := occupy(t, g, inv)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := g.Do(context.Background(), "fn", req("m", i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	<-inv.started
	close(inv.block)
	wg.Wait()
	if _, err := held.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, sizes := inv.dispatched("fn"); len(sizes) != 2 || sizes[1] != 2 {
		t.Fatalf("fallback dispatched %v, want the held activation then one batch of 2", sizes)
	}
}
