// Package hw simulates the physical platform NOVA runs on: CPUs with
// cycle-accurate clocks, physical memory with an MMIO bus, a tagged TLB
// model, platform devices (AHCI, NIC, PIC, PIT, serial), an IOMMU, and a
// discrete-event queue that provides virtual time.
//
// The paper's system runs on real Intel/AMD hardware; this package is the
// synthetic substitute. Everything that is an architectural *mechanism*
// (TLB tagging, nested page walks, DMA descriptor processing, interrupt
// coalescing) is executed for real; only the raw costs of hardware
// primitives (a VM transition, a page-walk step) are constants taken from
// the per-CPU cost models in costmodel.go, which correspond to the
// hardware-measured lowermost boxes of Figures 8 and 9 of the paper.
package hw

import (
	"container/heap"
	"fmt"
)

// Cycles is a duration or point in virtual time, measured in CPU clock
// cycles of the simulated platform's reference clock.
type Cycles uint64

// Clock is a per-CPU cycle counter. All costs charged during simulation
// accumulate here; benchmark results are derived from clock deltas.
type Clock struct {
	now Cycles

	// busy accumulates cycles charged while the CPU was doing
	// attributable work (as opposed to idling in HLT). CPU-utilization
	// figures are busy/total.
	busy Cycles
}

// Now returns the current virtual time of this clock.
func (c *Clock) Now() Cycles { return c.now }

// Busy returns the cycles spent on attributable work since creation.
func (c *Clock) Busy() Cycles { return c.busy }

// Charge advances the clock by n cycles of work.
func (c *Clock) Charge(n Cycles) {
	c.now += n
	c.busy += n
}

// Idle advances the clock by n cycles without accounting them as work
// (the CPU is halted or waiting).
func (c *Clock) Idle(n Cycles) { c.now += n }

// AdvanceTo moves the clock forward to t (idling) if t is in the future.
func (c *Clock) AdvanceTo(t Cycles) {
	if t > c.now {
		c.now = t
	}
}

// Event is a scheduled callback in virtual time. A device that fires
// the same kind of event over and over owns one Event and reschedules
// it (EventQueue.Schedule); EventQueue.At allocates one per call.
type Event struct {
	When Cycles
	Do   func()

	pos       int // 1 + heap index while pending, 0 otherwise
	seq       uint64
	cancelled bool
}

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.cancelled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].When != h[j].When {
		return h[i].When < h[j].When
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i + 1
	h[j].pos = j + 1
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	*h = append(*h, e)
	e.pos = len(*h)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.pos = 0
	*h = old[:n-1]
	return e
}

// EventQueue orders device completions, timer ticks and other
// asynchronous hardware activity in virtual time. It is deterministic:
// events at the same instant fire in scheduling order.
type EventQueue struct {
	// Next is the time of the earliest pending event, or the largest
	// Cycles value when none is pending. The run loops read it before
	// every step; only the queue's own methods may write it.
	Next Cycles

	heap eventHeap
	seq  uint64
}

// noEvent is EventQueue.Next while no event is pending.
const noEvent = ^Cycles(0)

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{Next: noEvent} }

// setNext makes Next the head's time after the heap changed.
func (q *EventQueue) setNext() {
	q.Next = noEvent
	if len(q.heap) > 0 {
		q.Next = q.heap[0].When
	}
}

// Schedule queues the caller-owned event e to run e.Do at absolute
// time when. It takes the same place in the firing order as an At call
// would. e must not be pending: it is in the heap already, and pushing
// it twice would corrupt the queue.
func (q *EventQueue) Schedule(e *Event, when Cycles) {
	if e.pos != 0 {
		// invariant: every owner of a reusable event schedules it only
		// when it is idle (fired or cancelled); a second Schedule of a
		// pending event is a simulator bug, not guest input.
		panic("hw: Schedule of a pending event")
	}
	q.seq++
	e.When, e.seq, e.cancelled = when, q.seq, false
	heap.Push(&q.heap, e)
	q.setNext()
}

// At schedules do to run at absolute time when and returns the event so
// the caller may cancel it.
func (q *EventQueue) At(when Cycles, do func()) *Event {
	e := &Event{Do: do}
	q.Schedule(e, when)
	return e
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (q *EventQueue) Cancel(e *Event) {
	if e == nil || e.pos == 0 {
		return
	}
	heap.Remove(&q.heap, e.pos-1)
	e.cancelled = true
	q.setNext()
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.heap) }

// PopDue fires the earliest event if it is due at or before now.
// It returns true if an event fired.
func (q *EventQueue) PopDue(now Cycles) bool {
	if len(q.heap) == 0 || q.heap[0].When > now {
		return false
	}
	e := heap.Pop(&q.heap).(*Event)
	q.setNext()
	e.Do()
	return true
}

// String summarizes the queue for debugging.
func (q *EventQueue) String() string {
	if len(q.heap) == 0 {
		return "eventqueue{empty}"
	}
	return fmt.Sprintf("eventqueue{%d pending, next @%d}", q.Len(), q.Next)
}
