package sim

import (
	"slices"
	"testing"
)

// TestLaneValidation pins the lane contract: keys as in AfterArgKeyed,
// non-nil callbacks, non-negative delays, and firing times that never
// precede the lane's last queued event.
func TestLaneValidation(t *testing.T) {
	fn := func(any) {}
	mustPanic(t, "negative key", func() { NewEngine().NewLane(-1, fn) })
	mustPanic(t, "KeyNone key", func() { NewEngine().NewLane(KeyNone, fn) })
	mustPanic(t, "nil callback", func() { NewEngine().NewLane(1, nil) })
	mustPanic(t, "negative delay", func() { NewEngine().NewLane(1, fn).After(-1, nil) })

	e := NewEngine()
	l := e.NewLane(1, fn)
	l.After(10, nil)
	l.After(10, nil) // equal firing times keep FIFO order
	mustPanic(t, "earlier than the lane's tail", func() { l.After(9, nil) })
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after two queued events", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 || e.Processed() != 2 {
		t.Fatalf("after Run: Pending = %d, Processed = %d", e.Pending(), e.Processed())
	}
}

// TestLanePushValidation pins Push's contract: nothing in the engine's past,
// no scheduling instant after the firing time, and no (at, schedAt) before
// the lane's last queued event. A scheduling instant ahead of the engine's
// clock is legal: it is the sender's, on another engine.
func TestLanePushValidation(t *testing.T) {
	e := NewEngine()
	l := e.NewLane(1, func(any) {})
	e.AdvanceTo(10)
	mustPanic(t, "at before now", func() { l.Push(9, 0, nil) })
	mustPanic(t, "schedAt after at", func() { l.Push(20, 21, nil) })
	l.Push(20, 15, nil) // schedAt ahead of now
	l.Push(20, 15, nil) // an equal key keeps FIFO order
	mustPanic(t, "at before the lane's tail", func() { l.Push(19, 12, nil) })
	mustPanic(t, "schedAt before the tail's at the same at", func() { l.Push(20, 14, nil) })
	l.Push(20, 16, nil)
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after three queued events", e.Pending())
	}
	e.Run()
	if e.Processed() != 3 || e.Now() != 20 {
		t.Fatalf("Processed = %d, Now = %v; want 3 at 20", e.Processed(), e.Now())
	}
}

// TestLanePushMatchesAfterArgKeyed checks the barrier hand-off: a stream
// pushed in advance with explicit scheduling instants fires in the same
// order, among colliding keyed and unkeyed events, as the same stream sent
// through AfterArgKeyed from those instants.
func TestLanePushMatchesAfterArgKeyed(t *testing.T) {
	const d = 7
	sends := []Time{0, 1, 3, 4, 5, 9, 10, 14}
	run := func(push bool) []int {
		e := NewEngine()
		var got []int
		rec := func(v any) { got = append(got, v.(int)) }
		if push {
			l := e.NewLane(5, rec)
			for i, s := range sends {
				l.Push(s+d, s, i) // scheduling instants still ahead of now
			}
		}
		next := 0
		for s := Time(0); s <= 15; s++ {
			e.Schedule(s, func() {
				if !push && next < len(sends) && sends[next] == s {
					e.AfterArgKeyed(d, 5, rec, next)
					next++
				}
				e.AfterArgKeyed(d, 2, rec, 100+int(s)) // lower key: fires first
				e.AfterArgKeyed(d, 9, rec, 200+int(s)) // higher key: fires after
				e.AfterArg(d, rec, 300+int(s))         // unkeyed: fires last
				e.AfterArg(d-1, rec, 400+int(s))       // earlier instant
			})
		}
		e.Run()
		return got
	}
	pushed, keyed := run(true), run(false)
	if len(keyed) != len(sends)+4*16 || !slices.Equal(pushed, keyed) {
		t.Fatalf("pushed lane fired %v,\nAfterArgKeyed fired %v", pushed, keyed)
	}
}

// TestLaneHoldsOneHeapEntry checks the point of a lane: however many events
// it queues, only its head occupies the heap.
func TestLaneHoldsOneHeapEntry(t *testing.T) {
	e := NewEngine()
	var got []int
	l := e.NewLane(3, func(v any) { got = append(got, v.(int)) })
	for i := 0; i < 100; i++ {
		l.After(Time(50+i/10), i)
	}
	if len(e.queue) != 1 || e.Stats().Slots != 1 {
		t.Fatalf("heap holds %d entries in %d slots, want 1", len(e.queue), e.Stats().Slots)
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("lane fired %v, want FIFO order", got)
		}
	}
	if len(got) != 100 {
		t.Fatalf("lane fired %d of 100 events", len(got))
	}
	if st := e.Stats(); st.Scheduled != 100 || st.Processed != 100 {
		t.Fatalf("stats = %+v, want 100 scheduled and processed", st)
	}
}

// TestLaneMatchesAfterArgKeyed replays one link-like schedule through a lane
// and through AfterArgKeyed, interleaved with unkeyed events and a second
// keyed stream colliding at the same instants: both engines must fire the
// same sequence.
func TestLaneMatchesAfterArgKeyed(t *testing.T) {
	run := func(useLane bool) []int {
		e := NewEngine()
		var got []int
		rec := func(v any) { got = append(got, v.(int)) }
		var l *Lane
		if useLane {
			l = e.NewLane(5, rec)
		}
		id := 0
		var tx func()
		tx = func() {
			id++
			if useLane {
				l.After(7, id)
			} else {
				e.AfterArgKeyed(7, 5, rec, id)
			}
			e.AfterArgKeyed(7, 2, rec, -id) // a lower-keyed peer at the same instant
			e.AfterArg(7, rec, 1000+id)     // unkeyed: after both keyed events
			if id < 50 {
				e.After(Time(id%3), tx) // back-to-back completions, some at one instant
			}
		}
		e.Schedule(0, tx)
		e.Run()
		return got
	}
	lane, keyed := run(true), run(false)
	if len(lane) != len(keyed) || len(lane) != 150 {
		t.Fatalf("fired %d (lane) vs %d (keyed) events, want 150", len(lane), len(keyed))
	}
	for i := range lane {
		if lane[i] != keyed[i] {
			t.Fatalf("event %d: lane fired %d, AfterArgKeyed fired %d", i, lane[i], keyed[i])
		}
	}
}

// TestCancelChurnKeepsQueueSmall re-arms one far timer on every firing of a
// near event chain — the go-back-N retransmission timer disarmed by each
// ACK. Without compaction every cancelled timer stays queued until the end
// of the run; with it the slab stays within twice the live events plus the
// compaction floor.
func TestCancelChurnKeepsQueueSmall(t *testing.T) {
	const rearms = 10_000
	e := NewEngine()
	noop := func() {}
	timer := e.After(4*Millisecond, noop)
	n := 0
	var ack func()
	ack = func() {
		e.Cancel(timer)
		timer = e.After(4*Millisecond, noop)
		if n++; n < rearms {
			e.After(Microsecond, ack)
		}
	}
	e.After(Microsecond, ack)
	e.Run()

	const peakLive = 2 // the next ack and the armed timer
	st := e.Stats()
	if st.Slots > 2*peakLive+2*compactFloor {
		t.Fatalf("slab grew to %d slots under %d re-arms (bound %d)",
			st.Slots, rearms, 2*peakLive+2*compactFloor)
	}
	if st.Canceled != rearms || st.Processed != rearms+1 {
		t.Fatalf("stats = %+v, want %d cancels and %d fired", st, rearms, rearms+1)
	}
}

// TestCompactionKeepsOrder cancels most of a large queue in an interleaved
// pattern, forcing several compactions, and checks the survivors still fire
// in (at, seq) order and the engine's counters stay consistent.
func TestCompactionKeepsOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(v any) { got = append(got, v.(int)) }
	evs := make([]Event, 1000)
	for i := range evs {
		evs[i] = e.AfterArg(Time((i*7919)%500), rec, i)
	}
	for i := range evs {
		if i%4 != 0 {
			e.Cancel(evs[i])
		}
	}
	if len(e.queue) > 2*e.Pending()+2*compactFloor {
		t.Fatalf("queue holds %d entries for %d live events", len(e.queue), e.Pending())
	}
	for i := range evs {
		if live := i%4 == 0; evs[i].Pending() != live {
			t.Fatalf("event %d Pending = %v after compaction, want %v", i, !live, live)
		}
	}
	e.Run()
	if len(got) != 250 {
		t.Fatalf("fired %d events, want 250", len(got))
	}
	for k := 1; k < len(got); k++ {
		a, b := got[k-1], got[k]
		ta, tb := (a*7919)%500, (b*7919)%500
		if ta > tb || ta == tb && a > b {
			t.Fatalf("fired %d (t=%d) before %d (t=%d)", a, ta, b, tb)
		}
	}
	if e.tombs != 0 || len(e.queue) != 0 {
		t.Fatalf("drained engine keeps %d tombstones, %d entries", e.tombs, len(e.queue))
	}
}

// TestLaneSteadyStateZeroAlloc pins the lane's hot path: once its ring has
// grown, queueing and firing allocate nothing.
func TestLaneSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	l := e.NewLane(0, func(any) {})
	for i := 0; i < 64; i++ {
		l.After(10, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		l.After(10, e)
		l.After(10, e)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("lane schedule/fire allocates %.1f/op (want 0)", allocs)
	}
}
