package sim

import "fmt"

// Lane is a FIFO of keyed events whose ordering keys only grow: every event
// is scheduled with the lane's key, and its (firing time, scheduling time)
// pair is never earlier than that of the event queued before it. Such a
// stream already fires in queue order, so the lane keeps only its head in
// the engine's heap; when the head fires, the next entry takes its place in
// the heap with the (at, schedAt, key, seq) it was stamped with at enqueue.
// The engine therefore fires exactly the events, in exactly the order, that
// AfterArgKeyed would have produced for the same calls, while its heap holds
// one entry per lane instead of one per event.
//
// A link's deliveries meet the contract: the propagation delay is constant
// and scheduling times never decrease. That holds whether the source port
// runs on the lane's engine (After) or on another shard's engine, whose
// frames arrive at barriers in transmit order (Push). Lane events cannot be
// cancelled.
type Lane struct {
	e   *Engine
	key int32
	fn  func(any)

	// buf is a power-of-two ring of pending entries; buf[head] is the one
	// in the heap.
	buf  []laneEntry
	head int
	n    int
}

// laneEntry is one queued event with the ordering key stamped at enqueue.
type laneEntry struct {
	at      Time
	schedAt Time
	seq     uint64
	arg     any
}

// NewLane returns an empty lane whose events fire fn(arg) in FIFO order and
// collide with other events at the same (at, schedAt) instant under key, as
// in AfterArgKeyed.
func (e *Engine) NewLane(key int32, fn func(any)) *Lane {
	if fn == nil {
		panic("sim: lane with nil callback")
	}
	checkKey(key)
	return &Lane{e: e, key: key, fn: fn}
}

// After queues fn(arg) to fire d after the current time: Push(now+d, now,
// arg).
func (l *Lane) After(d Time, arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	l.Push(l.e.now+d, l.e.now, arg)
}

// Push queues fn(arg) to fire at time at, ordered as if it had been scheduled at
// schedAt — which may lie on another engine's clock, ahead of or behind this
// one's. The sharded executor uses it to hand a cross-shard frame to the
// receiver's lane with the transmit-completion instant of the source port.
// Scheduling in the past, a schedAt after at, or an (at, schedAt) before the
// lane's last queued event panics: the lane would otherwise fire out of order.
func (l *Lane) Push(at, schedAt Time, arg any) {
	e := l.e
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if schedAt > at {
		panic(fmt.Sprintf("sim: lane event scheduled at %v fires earlier, at %v", schedAt, at))
	}
	ent := laneEntry{at: at, schedAt: schedAt, seq: e.seq, arg: arg}
	if l.n > 0 {
		last := l.buf[(l.head+l.n-1)&(len(l.buf)-1)]
		if at < last.at || at == last.at && schedAt < last.schedAt {
			panic(fmt.Sprintf("sim: lane event (%v, %v) before queued (%v, %v)",
				at, schedAt, last.at, last.schedAt))
		}
	} else {
		l.arm(ent)
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ent
	l.n++
	e.seq++
	e.scheduled++
	e.live++
}

// arm puts ent, the lane's new head, into the engine's heap.
func (l *Lane) arm(ent laneEntry) {
	i := l.e.insert(l.entry(ent), nil, nil, nil)
	l.e.slots[i].lane = l
}

// entry is the heap entry of a queued lane event.
func (l *Lane) entry(ent laneEntry) entry {
	return entry{at: ent.at, schedAt: ent.schedAt, seq: ent.seq, key: l.key}
}

// grow doubles the ring, unrolling it so the head lands at index 0.
func (l *Lane) grow() {
	buf := make([]laneEntry, max(8, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf = buf
	l.head = 0
}

// fire runs the lane's head, which Step found at the top of the heap. The
// next entry, if any, inherits the head's slot and replaces it at the top in
// one sift instead of a pop plus a push. Counted as a slot reuse, like any
// schedule that does not grow the slab.
func (l *Lane) fire(head entry) {
	e := l.e
	arg := l.buf[l.head].arg
	l.buf[l.head] = laneEntry{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n > 0 {
		next := l.entry(l.buf[l.head])
		next.slot = head.slot
		e.slots[head.slot].at = next.at
		e.slotReuses++
		e.siftDown(0, next)
	} else {
		e.popTop()
		e.release(head.slot)
	}
	l.fn(arg)
}
