package hypervisor

// NumPriorities is the range of scheduling-context priorities.
const NumPriorities = 128

// runqueue is one CPU's ready structure: a FIFO per priority level,
// implementing the preemptive priority-driven round-robin policy of
// §5.1.
type runqueue struct {
	levels [NumPriorities][]*SC
	bitmap [NumPriorities / 64]uint64
	count  int
}

func newRunqueue() *runqueue { return &runqueue{} }

func (q *runqueue) push(sc *SC) {
	if sc.queued {
		return
	}
	p := sc.Priority
	if p < 0 {
		p = 0
	}
	if p >= NumPriorities {
		p = NumPriorities - 1
	}
	sc.Priority = p
	// caphold: ready queue holds the SC until dispatch, which drops dead SCs; teardown=DestroyPD
	q.levels[p] = append(q.levels[p], sc)
	q.bitmap[p/64] |= 1 << uint(p%64)
	sc.queued = true
	q.count++
}

// pop removes and returns the highest-priority SC, round-robin within a
// level.
func (q *runqueue) pop() *SC {
	for w := len(q.bitmap) - 1; w >= 0; w-- {
		if q.bitmap[w] == 0 {
			continue
		}
		// Highest set bit in this word.
		b := 63
		for ; b >= 0; b-- {
			if q.bitmap[w]&(1<<uint(b)) != 0 {
				break
			}
		}
		p := w*64 + b
		// Copy the level down rather than re-slicing past its head, so
		// push appends into the same backing array forever.
		l := q.levels[p]
		sc := l[0]
		n := copy(l, l[1:])
		l[n] = nil
		q.levels[p] = l[:n]
		if n == 0 {
			q.bitmap[w] &^= 1 << uint(b)
		}
		sc.queued = false
		q.count--
		return sc
	}
	return nil
}

// peekPriority returns the priority of the best runnable SC, or -1.
func (q *runqueue) peekPriority() int {
	for w := len(q.bitmap) - 1; w >= 0; w-- {
		if q.bitmap[w] == 0 {
			continue
		}
		for b := 63; b >= 0; b-- {
			if q.bitmap[w]&(1<<uint(b)) != 0 {
				return w*64 + b
			}
		}
	}
	return -1
}

func (q *runqueue) empty() bool { return q.count == 0 }

// enqueue puts an SC on its CPU's runqueue.
func (k *Kernel) enqueue(sc *SC) {
	if sc.EC != nil && sc.EC.dead {
		return
	}
	if !sc.queued {
		sc.enqueuedAt = k.Plat.CPUs[sc.EC.CPU].Clock.Now()
	}
	k.runq[sc.EC.CPU].push(sc)
}
