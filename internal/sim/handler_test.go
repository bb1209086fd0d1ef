package sim

import (
	"testing"
)

// recorder is a Handler that logs its fired args and can chain-schedule.
type recorder struct {
	k     *Kernel
	fired []int
	chain int // schedule this many follow-ups, one per firing
}

func (r *recorder) Fire(arg int) {
	r.fired = append(r.fired, arg)
	if r.chain > 0 {
		r.chain--
		r.k.ScheduleEvent(r.k.Now()+1, 0, r, arg+100)
	}
}

func TestScheduleEventDispatchOrder(t *testing.T) {
	k := NewKernel()
	r := &recorder{k: k}
	k.ScheduleEvent(3, 0, r, 30)
	k.ScheduleEvent(1, 0, r, 10)
	k.ScheduleEvent(2, 1, r, 21)
	k.ScheduleEvent(2, 0, r, 20)
	k.Run()
	want := []int{10, 20, 21, 30}
	if len(r.fired) != len(want) {
		t.Fatalf("fired %v, want %v", r.fired, want)
	}
	for i, v := range want {
		if r.fired[i] != v {
			t.Fatalf("fired %v, want %v", r.fired, want)
		}
	}
}

func TestScheduleEventInterleavesWithClosures(t *testing.T) {
	k := NewKernel()
	var order []string
	r := &recorder{k: k}
	at(k, 1, func() { order = append(order, "fn") })
	k.ScheduleEvent(1, 0, r, 1)
	at(k, 2, func() { order = append(order, "fn2") })
	k.Run()
	// Same time, insertion order: the closure adapter first, then the
	// recorder.
	if len(order) != 2 || order[0] != "fn" || len(r.fired) != 1 {
		t.Fatalf("order %v, fired %v", order, r.fired)
	}
}

// A fired handler event's record must be recycled: a self-rescheduling
// chain reaches steady state with zero live allocations per event.
func TestHandlerEventRecordsAreRecycled(t *testing.T) {
	k := NewKernel()
	r := &recorder{k: k, chain: 64}
	k.ScheduleEvent(0, 0, r, 0)
	k.Run()
	if len(r.fired) != 65 {
		t.Fatalf("fired %d events, want 65", len(r.fired))
	}
	// The chain reuses one record: after the run exactly one sits free.
	if n := len(k.free); n != 1 {
		t.Fatalf("freelist holds %d records after a self-rescheduling chain, want 1", n)
	}
	// And a fresh scheduling drains it rather than allocating.
	e := k.ScheduleEvent(k.Now()+1, 0, r, 7)
	if len(k.free) != 0 {
		t.Fatal("scheduling did not reuse the pooled record")
	}
	// A cancelled record is dropped, not recycled: that keeps a
	// double-Cancel from poisoning a reused record.
	k.Cancel(e)
	if len(k.free) != 0 {
		t.Fatal("cancel recycled the record; stale handles could then cancel a reused event")
	}
	k.Cancel(e) // must stay a no-op
	if e.Scheduled() {
		t.Fatal("cancelled event still scheduled")
	}
}

func TestCancelPooledEventPreventsFiring(t *testing.T) {
	k := NewKernel()
	r := &recorder{k: k}
	e := k.ScheduleEvent(5, 0, r, 1)
	k.ScheduleEvent(6, 0, r, 2)
	k.Cancel(e)
	k.Run()
	if len(r.fired) != 1 || r.fired[0] != 2 {
		t.Fatalf("fired %v, want [2]", r.fired)
	}
}

func TestReschedulePendingHandlerEvent(t *testing.T) {
	k := NewKernel()
	r := &recorder{k: k}
	e := k.ScheduleEvent(5, 0, r, 1)
	k.Reschedule(e, 9)
	k.Run()
	if k.Now() != 9 || len(r.fired) != 1 {
		t.Fatalf("now=%v fired=%v", k.Now(), r.fired)
	}
}

// Cancel-then-reschedule is part of Reschedule's contract and must work
// for handler events too (their cancelled records are never recycled,
// so re-arming is safe).
func TestRescheduleCancelledHandlerEvent(t *testing.T) {
	k := NewKernel()
	r := &recorder{k: k}
	e := k.ScheduleEvent(5, 0, r, 3)
	k.Cancel(e)
	k.Reschedule(e, 7)
	k.Run()
	if k.Now() != 7 || len(r.fired) != 1 || r.fired[0] != 3 {
		t.Fatalf("now=%v fired=%v, want one firing of arg 3 at t=7", k.Now(), r.fired)
	}
}

func TestRescheduleFiredHandlerEventPanics(t *testing.T) {
	k := NewKernel()
	r := &recorder{k: k}
	e := k.ScheduleEvent(1, 0, r, 1)
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling a fired handler event did not panic")
		}
	}()
	k.Reschedule(e, 5)
}

func TestScheduleEventNilHandlerPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler accepted")
		}
	}()
	k.ScheduleEvent(1, 0, nil, 0)
}

// Reset must return the kernel to a pristine state — clock, counters,
// queue — while keeping pooled records, so a reset kernel replays a
// schedule bit for bit.
func TestKernelResetReplaysIdentically(t *testing.T) {
	k := NewKernel()
	run := func() (Time, uint64, []int) {
		r := &recorder{k: k, chain: 10}
		k.ScheduleEvent(0.5, 0, r, 1)
		at(k, 2, func() {})
		k.Run()
		return k.Now(), k.Processed(), r.fired
	}
	t1, p1, f1 := run()
	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 || k.Processed() != 0 || k.Stopped() {
		t.Fatal("Reset left residual state")
	}
	t2, p2, f2 := run()
	if t1 != t2 || p1 != p2 || len(f1) != len(f2) {
		t.Fatalf("replay diverged: (%v,%d,%v) vs (%v,%d,%v)", t1, p1, f1, t2, p2, f2)
	}
}

// Reset with events still pending must recycle their records instead of
// leaking them.
func TestKernelResetRecyclesPendingRecords(t *testing.T) {
	k := NewKernel()
	r := &recorder{k: k}
	for i := 0; i < 8; i++ {
		k.ScheduleEvent(Time(i+1), 0, r, i)
	}
	k.Reset()
	if k.Pending() != 0 {
		t.Fatal("pending events after Reset")
	}
	if len(k.free) != 8 {
		t.Fatalf("freelist holds %d records after Reset, want 8", len(k.free))
	}
}

// A stopped ticker restarted after Reset must tick from zero again —
// the workspace reuse path.
func TestTickerOnResetKernel(t *testing.T) {
	k := NewKernel()
	count := 0
	tk := NewTicker(k, 1)
	tk.OnTick(func(uint64) { count++ })
	tk.Start()
	k.RunUntil(10)
	first := count
	if first == 0 {
		t.Fatal("ticker never ticked")
	}
	k.Reset()
	count = 0
	tk2 := NewTicker(k, 1)
	tk2.OnTick(func(uint64) { count++ })
	tk2.Start()
	k.RunUntil(10)
	if count != first {
		t.Fatalf("ticker on reset kernel ticked %d times, fresh run ticked %d", count, first)
	}
}
