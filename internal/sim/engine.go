package sim

import (
	"fmt"
	"math"
)

// The engine is allocation-free in steady state. Events live in a
// slot slab owned by the engine; Schedule hands out value-type handles
// carrying a generation counter, freed slots recycle through a freelist, and
// cancellation is O(1) lazy tombstoning. Tombstones leave the priority queue
// when they reach the front or, once they outnumber the live entries, in one
// O(n) compaction pass, so the queue never holds more than about twice the
// live events. Streams of events that are FIFO by construction (link
// deliveries) queue in a Lane, which keeps only its head in the heap. The
// (time, schedAt, key, seq) tiebreak gives every event a unique position in
// a strict total order, so firing order — and therefore every downstream
// measurement — is deterministic, independent of how the heap is arranged,
// and, for keyed link deliveries, reproducible by the sharded parallel
// executor (see Lane.Push and RunBefore).

// Event is a handle to a scheduled callback, returned by Schedule/After so
// the caller can cancel it (e.g. a retransmission timer disarmed by an ACK).
// It is a value type; the zero Event refers to nothing and is safe to Cancel
// or query. A handle goes stale once its event fires or is cancelled: stale
// handles are inert — in particular, cancelling one never affects a later
// event that recycled the same internal slot (the generation check).
type Event struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Pending reports whether the event is still scheduled: not yet fired and
// not cancelled. Zero and stale handles report false.
func (ev Event) Pending() bool {
	if ev.e == nil {
		return false
	}
	s := &ev.e.slots[ev.slot]
	return s.gen == ev.gen && s.live
}

// At returns the firing time of a pending event, and 0 for zero or stale
// handles (check Pending when the distinction matters).
func (ev Event) At() Time {
	if !ev.Pending() {
		return 0
	}
	return ev.e.slots[ev.slot].at
}

// slot is the pooled storage behind one Event handle. A slot is occupied
// from Schedule until its queue entry is popped (fired or swept as a
// tombstone); only then does it return to the freelist with its generation
// bumped, which is what invalidates outstanding handles.
type slot struct {
	gen   uint32
	live  bool // scheduled and not cancelled
	at    Time
	fn    func()
	argFn func(any)
	arg   any
	lane  *Lane // set while the slot holds a lane's head
}

// KeyNone is the ordering key of every event scheduled without an explicit
// key. It sorts after all explicit keys, so keyed events (link deliveries)
// fire before unkeyed ones when both share an (at, schedAt) instant — the
// canonical collision order the sharded executor reproduces (see RunBefore).
const KeyNone int32 = math.MaxInt32

// entry is one priority-queue element. It carries the ordering key inline so
// sift operations never chase into the slot slab.
type entry struct {
	at      Time
	schedAt Time   // scheduling instant (Lane.Push may carry another engine's)
	seq     uint64 // final tiebreak: scheduling order
	key     int32  // canonical collision key (KeyNone unless keyed)
	slot    int32
}

// before orders by (at, schedAt, key, seq). Because seq is assigned in
// scheduling order and the clock never moves backwards, seq is monotone in
// schedAt; for unkeyed events this order is therefore identical to the
// classic (at, seq) order. The key term canonicalizes only true collisions:
// distinct events sharing both firing and scheduling instants.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// EngineStats is the scheduler's own performance telemetry, surfaced by the
// experiment harness so every sweep tracks engine throughput and pool
// efficiency as first-class outputs.
type EngineStats struct {
	// Processed counts events that fired.
	Processed uint64
	// Scheduled counts Schedule/After calls.
	Scheduled uint64
	// Canceled counts effective Cancel calls (stale/no-op cancels excluded).
	Canceled uint64
	// SlotReuses counts schedules served from the freelist instead of
	// growing the slab — the event-pool hit count.
	SlotReuses uint64
	// Slots is the slab size: the high-water mark of queued entries —
	// live events plus tombstones not yet compacted away. Lane entries
	// behind a lane's head hold no slot.
	Slots int
}

// ReuseRate is SlotReuses/Scheduled: the fraction of schedules that recycled
// a freed slot (approaches 1 in steady state).
func (s EngineStats) ReuseRate() float64 {
	if s.Scheduled == 0 {
		return 0
	}
	return float64(s.SlotReuses) / float64(s.Scheduled)
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is not usable; construct with NewEngine. An Engine must be
// driven from one goroutine; the harness-level parallelism in this project
// runs one independent Engine per (scheme, seed, sweep-point) instead of
// parallelizing inside a run.
type Engine struct {
	now     Time
	seq     uint64
	queue   []entry
	slots   []slot
	free    []int32
	live    int // scheduled, not cancelled, not fired
	tombs   int // cancelled entries still in queue
	stopped bool

	processed  uint64
	scheduled  uint64
	canceled   uint64
	slotReuses uint64
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns how many events have fired so far (for harness stats).
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.live }

// Stats returns the engine's cumulative scheduling telemetry.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Processed:  e.processed,
		Scheduled:  e.scheduled,
		Canceled:   e.canceled,
		SlotReuses: e.slotReuses,
		Slots:      len(e.slots),
	}
}

// alloc returns a free slot index, recycling before growing the slab.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		e.slotReuses++
		return i
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// release returns a popped slot to the freelist, bumping the generation so
// every outstanding handle to it goes stale.
func (e *Engine) release(i int32) {
	s := &e.slots[i]
	s.gen++
	s.live = false
	s.at = 0
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	s.lane = nil
	e.free = append(e.free, i)
}

func (e *Engine) push(at Time, key int32, fn func(), argFn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	i := e.insert(entry{at: at, schedAt: e.now, seq: e.seq, key: key}, fn, argFn, arg)
	e.seq++
	e.scheduled++
	e.live++
	return Event{e: e, slot: i, gen: e.slots[i].gen}
}

// insert binds ent to a fresh slot holding the callback and adds it to the
// heap. The caller stamps ent's ordering key and does the accounting.
func (e *Engine) insert(ent entry, fn func(), argFn func(any), arg any) int32 {
	i := e.alloc()
	s := &e.slots[i]
	s.live = true
	s.at = ent.at
	s.fn = fn
	s.argFn = argFn
	s.arg = arg
	ent.slot = i
	e.queue = append(e.queue, ent)
	e.siftUp(len(e.queue) - 1)
	return i
}

// Schedule registers fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a modelling bug, and silently reordering time
// would corrupt every downstream measurement.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	return e.push(at, KeyNone, fn, nil, nil)
}

// After registers fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleArg registers fn(arg) to run at absolute time at. It is the
// allocation-free alternative to Schedule for hot paths: passing a
// package-level function plus a pointer argument avoids the closure capture
// a literal would heap-allocate on every call.
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	return e.push(at, KeyNone, nil, fn, arg)
}

// AfterArg registers fn(arg) to run d after the current time; see
// ScheduleArg.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleArg(e.now+d, fn, arg)
}

// AfterArgKeyed is AfterArg with an explicit collision key below KeyNone.
// Events that share an (at, schedAt) instant fire in key order, regardless
// of scheduling order within the instant — the hook netsim uses to give
// simultaneous link deliveries a canonical, executor-independent order.
func (e *Engine) AfterArgKeyed(d Time, key int32, fn func(any), arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	checkKey(key)
	return e.push(e.now+d, key, nil, fn, arg)
}

// checkKey panics unless key is a valid explicit collision key: in
// [0, KeyNone).
func checkKey(key int32) {
	if key < 0 || key == KeyNone {
		panic(fmt.Sprintf("sim: event key %d out of range", key))
	}
}

// compactFloor keeps small queues from compacting on every other cancel.
const compactFloor = 32

// Cancel deactivates ev if it has not fired. Safe to call on zero or stale
// handles (including a handle whose slot has been recycled by a newer event
// — the generation check makes that a no-op). The queue entry is tombstoned
// in O(1) and swept when it reaches the front, or by compact once
// tombstones fill more than half the queue (amortised O(1) per cancel).
func (e *Engine) Cancel(ev Event) {
	if ev.e != e || ev.e == nil {
		return
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen || !s.live {
		return
	}
	s.live = false
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	e.canceled++
	e.live--
	e.tombs++
	if e.tombs > len(e.queue)/2+compactFloor {
		e.compact()
	}
}

// compact drops every tombstone from the queue, releases their slots and
// re-heapifies in O(n). The order is a strict total order, so the rebuilt
// heap fires exactly the same sequence as the one it replaces.
func (e *Engine) compact() {
	q := e.queue
	n := 0
	for _, ent := range q {
		if e.slots[ent.slot].live {
			q[n] = ent
			n++
		} else {
			e.release(ent.slot)
		}
	}
	clear(q[n:])
	e.queue = q[:n]
	e.tombs = 0
	for i := n/2 - 1; i >= 0; i-- {
		e.siftDown(i, q[i])
	}
}

// sweep pops tombstones off the front of the queue so its head, if any, is
// live.
func (e *Engine) sweep() {
	for len(e.queue) > 0 && !e.slots[e.queue[0].slot].live {
		i := e.queue[0].slot
		e.popTop()
		e.release(i)
		e.tombs--
	}
}

// Stop makes the current Run/RunUntil call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (e *Engine) Step() bool {
	e.sweep()
	if len(e.queue) == 0 {
		return false
	}
	ent := e.queue[0]
	s := &e.slots[ent.slot]
	e.now = ent.at
	e.processed++
	e.live--
	if l := s.lane; l != nil {
		l.fire(ent)
		return true
	}
	e.popTop()
	fn, argFn, arg := s.fn, s.argFn, s.arg
	e.release(ent.slot) // free before firing so fn can recycle the slot
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	return true
}

// Run drains the event queue or stops when Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil processes events with firing time <= deadline, then advances the
// clock to the deadline. Events scheduled exactly at the deadline do fire.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		e.sweep()
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunBefore fires, in order, every pending event whose (at, schedAt, key)
// prefix sorts strictly before the bound (at, schedAt, key), and leaves the
// clock at the last event fired. It is the sharded executor's window: the
// bound (end, -1, 0) covers every event firing before end, and
// (t, s, KeyNone) stops exactly at the position an unkeyed event scheduled
// at s for t would take, after any keyed event at the same instant. Stop
// does not apply: a window always runs to its bound.
func (e *Engine) RunBefore(at, schedAt Time, key int32) {
	bound := entry{at: at, schedAt: schedAt, key: key} // seq 0: the prefix decides
	for {
		e.sweep()
		if len(e.queue) == 0 || !e.queue[0].before(bound) {
			return
		}
		e.Step()
	}
}

// HeadKey peeks at the earliest pending event and returns its ordering key
// prefix (firing time, scheduling time, collision key). The sharded executor
// reads the firing time to size its next window. Tombstones are swept off the
// front so the answer reflects a live event. ok is false when the queue is
// empty.
func (e *Engine) HeadKey() (at, schedAt Time, key int32, ok bool) {
	e.sweep()
	if len(e.queue) == 0 {
		return 0, 0, 0, false
	}
	return e.queue[0].at, e.queue[0].schedAt, e.queue[0].key, true
}

// AdvanceTo moves the clock forward to t without firing anything. The
// sharded executor uses it to align every engine on a global tick or on the
// end of a run. Moving time backwards panics, exactly like scheduling in the
// past.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v before now %v", t, e.now))
	}
	e.now = t
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ent := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ent.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ent
}

// popTop removes the minimum entry and restores the heap property.
func (e *Engine) popTop() {
	q := e.queue
	n := len(q) - 1
	ent := q[n]
	q[n] = entry{}
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0, ent)
	}
}

// siftDown places ent at index i, or below it, restoring the heap property
// of the subtree rooted at i.
func (e *Engine) siftDown(i int, ent entry) {
	q := e.queue
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && q[r].before(q[l]) {
			child = r
		}
		if !q[child].before(ent) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = ent
}

// ticker is the reusable state behind Engine.Ticker: one allocation at
// creation, zero per tick (the reschedule goes through the arg path).
type ticker struct {
	e       *Engine
	period  Time
	fn      func()
	stopped bool
	ev      Event
}

func tickerFire(v any) {
	t := v.(*ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.ev = t.e.AfterArg(t.period, tickerFire, t)
	}
}

// Ticker invokes fn every period until cancel is invoked or the engine
// drains. It returns a stop function. The first tick fires one period from
// now.
func (e *Engine) Ticker(period Time, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	t := &ticker{e: e, period: period, fn: fn}
	t.ev = e.AfterArg(period, tickerFire, t)
	return func() {
		t.stopped = true
		e.Cancel(t.ev)
	}
}
