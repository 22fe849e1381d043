package hw

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestClockChargeAndIdle(t *testing.T) {
	var c Clock
	c.Charge(100)
	c.Idle(50)
	if c.Now() != 150 {
		t.Errorf("Now = %d, want 150", c.Now())
	}
	if c.Busy() != 100 {
		t.Errorf("Busy = %d, want 100", c.Busy())
	}
	c.AdvanceTo(120) // in the past: no-op
	if c.Now() != 150 {
		t.Errorf("AdvanceTo past moved clock to %d", c.Now())
	}
	c.AdvanceTo(200)
	if c.Now() != 200 {
		t.Errorf("AdvanceTo(200) = %d", c.Now())
	}
	if c.Busy() != 100 {
		t.Errorf("AdvanceTo changed Busy to %d", c.Busy())
	}
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	var fired []int
	q.At(30, func() { fired = append(fired, 3) })
	q.At(10, func() { fired = append(fired, 1) })
	q.At(20, func() { fired = append(fired, 2) })
	for q.PopDue(100) {
	}
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fire order = %v, want [1 2 3]", fired)
	}
}

func TestEventQueueFIFOAtSameTime(t *testing.T) {
	q := NewEventQueue()
	var fired []int
	for i := 0; i < 5; i++ {
		i := i
		q.At(42, func() { fired = append(fired, i) })
	}
	for q.PopDue(42) {
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", fired)
		}
	}
}

func TestEventQueueNotDueYet(t *testing.T) {
	q := NewEventQueue()
	ran := false
	q.At(100, func() { ran = true })
	if q.PopDue(99) {
		t.Error("PopDue(99) fired an event scheduled at 100")
	}
	if ran {
		t.Error("event ran early")
	}
	if q.Next != 100 {
		t.Errorf("Next = %d, want 100", q.Next)
	}
	if !q.PopDue(100) || !ran {
		t.Error("event did not run at its due time")
	}
	if q.Len() != 0 {
		t.Error("queue should be empty")
	}
}

// TestEventQueueNextTracksHead drives a queue through random At calls,
// Schedule calls of reused caller-owned events (one of which schedules
// another when it fires), Cancel and PopDue, and checks after every
// operation that Next is the earliest pending time, or noEvent when
// nothing is pending.
func TestEventQueueNextTracksHead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewEventQueue()
	var now Cycles
	owned := make([]*Event, 4)
	for i := range owned {
		owned[i] = &Event{Do: func() {}}
	}
	owned[0].Do = func() {
		if owned[1].pos == 0 {
			q.Schedule(owned[1], now+Cycles(rng.Intn(10)))
		}
	}
	cancellable := append([]*Event(nil), owned...)
	for i := 0; i < 5000; i++ {
		var op string
		switch rng.Intn(4) {
		case 0:
			op = "At"
			cancellable = append(cancellable, q.At(now+Cycles(rng.Intn(100)), func() {}))
		case 1:
			op = "Schedule"
			if e := owned[rng.Intn(len(owned))]; e.pos == 0 {
				q.Schedule(e, now+Cycles(rng.Intn(100)))
			}
		case 2:
			op = "Cancel"
			q.Cancel(cancellable[rng.Intn(len(cancellable))])
		default:
			op = "PopDue"
			now += Cycles(rng.Intn(30))
			q.PopDue(now)
		}
		want := noEvent
		for _, e := range q.heap {
			want = min(want, e.When)
		}
		if q.Next != want {
			t.Fatalf("op %d (%s): Next = %d, earliest pending %d", i, op, q.Next, want)
		}
	}
}

func TestEventQueueCancel(t *testing.T) {
	q := NewEventQueue()
	ran := false
	e := q.At(10, func() { ran = true })
	q.Cancel(e)
	if !e.Cancelled() {
		t.Error("event not marked cancelled")
	}
	for q.PopDue(100) {
	}
	if ran {
		t.Error("cancelled event ran")
	}
	q.Cancel(e) // double-cancel is a no-op
	q.Cancel(nil)
}

func TestEventQueueCascade(t *testing.T) {
	// An event that schedules another event due at the same horizon.
	q := NewEventQueue()
	var fired []string
	q.At(10, func() {
		fired = append(fired, "a")
		q.At(20, func() { fired = append(fired, "b") })
	})
	for q.PopDue(50) {
	}
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Errorf("cascade = %v, want [a b]", fired)
	}
}

func TestCostModelConversions(t *testing.T) {
	blm := Bloomfield()
	if blm.FreqMHz != 2670 {
		t.Fatalf("BLM freq = %d", blm.FreqMHz)
	}
	ns := blm.CyclesToNs(2670)
	if ns < 999 || ns > 1001 {
		t.Errorf("2670 cycles at 2.67GHz = %f ns, want ~1000", ns)
	}
	cy := blm.NsToCycles(1000)
	if cy != 2670 {
		t.Errorf("1000ns = %d cycles, want 2670", cy)
	}
	s := blm.CyclesToSeconds(2670e6)
	if s < 0.999 || s > 1.001 {
		t.Errorf("2670M cycles = %f s, want ~1", s)
	}
}

func TestCostModelTable1Complete(t *testing.T) {
	// All six Table 1 processors must be present with sane parameters.
	models := Models()
	if len(models) != 6 {
		t.Fatalf("got %d models, want 6", len(models))
	}
	wantFreq := map[CPUModel]int{K8: 2000, K10: 2200, YNH: 2000, CNR: 2400, WFD: 3000, BLM: 2670}
	for _, m := range models {
		if m.FreqMHz != wantFreq[m.Model] {
			t.Errorf("%v freq = %d, want %d", m.Model, m.FreqMHz, wantFreq[m.Model])
		}
		if m.SyscallEntryExit == 0 || m.VMTransit == 0 {
			t.Errorf("%v has zero transition costs", m.Model)
		}
		if m.TaggedVMTransit > m.VMTransit {
			t.Errorf("%v tagged transit %d > untagged %d", m.Model, m.TaggedVMTransit, m.VMTransit)
		}
	}
}

func TestVMTransitCostTagging(t *testing.T) {
	blm := Bloomfield()
	if got := blm.VMTransitCost(true); got != 1016 {
		t.Errorf("BLM tagged transit = %d, want 1016 (paper §8.5)", got)
	}
	if got := blm.VMTransitCost(false); got != 1091 {
		t.Errorf("BLM untagged transit = %d, want 1091", got)
	}
	// CPUs without VPID ignore the tagging request.
	wfd := ModelByName(WFD)
	if wfd.VMTransitCost(true) != wfd.VMTransitCost(false) {
		t.Error("WFD has no VPID; tagged and untagged transit must match")
	}
}

// TestEventQueueScheduleReusesEvent: a caller-owned event takes the
// same place in the firing order as an At call, can be scheduled again
// once it fired or was cancelled, and must not be scheduled while it
// is pending.
func TestEventQueueScheduleReusesEvent(t *testing.T) {
	q := NewEventQueue()
	var fired []string
	var e Event
	e.Do = func() { fired = append(fired, "e") }
	q.At(10, func() { fired = append(fired, "a") })
	q.Schedule(&e, 10)
	q.At(10, func() { fired = append(fired, "b") })
	for q.PopDue(10) {
	}
	q.Schedule(&e, 20)
	q.Cancel(&e)
	if !e.Cancelled() {
		t.Error("cancelled event not marked cancelled")
	}
	q.Schedule(&e, 30)
	if e.Cancelled() {
		t.Error("rescheduled event still marked cancelled")
	}
	for q.PopDue(100) {
	}
	if got := fmt.Sprint(fired); got != "[a e b e]" {
		t.Errorf("fired %s, want [a e b e]", got)
	}

	q.Schedule(&e, 40)
	defer func() {
		if recover() == nil {
			t.Error("scheduling a pending event did not panic")
		}
	}()
	q.Schedule(&e, 50)
}
