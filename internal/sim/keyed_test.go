package sim

import (
	"slices"
	"testing"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestAfterArgKeyedValidation pins the argument contract: keys are positive
// and strictly below KeyNone (the unkeyed sentinel), callbacks are non-nil,
// delays are non-negative.
func TestAfterArgKeyedValidation(t *testing.T) {
	fn := func(any) {}
	mustPanic(t, "negative key", func() {
		NewEngine().AfterArgKeyed(0, -1, fn, nil)
	})
	mustPanic(t, "KeyNone key", func() {
		NewEngine().AfterArgKeyed(0, KeyNone, fn, nil)
	})
	mustPanic(t, "nil callback", func() {
		NewEngine().AfterArgKeyed(0, 1, nil, nil)
	})
	mustPanic(t, "negative delay", func() {
		NewEngine().AfterArgKeyed(-1, 1, fn, nil)
	})
	// Key 0 and KeyNone-1 are both legal endpoints.
	e := NewEngine()
	e.AfterArgKeyed(0, 0, fn, nil)
	e.AfterArgKeyed(0, KeyNone-1, fn, nil)
}

// TestKeyedOrderAtInstant checks the canonical collision order: events that
// share (at, schedAt) fire in key order regardless of scheduling order, and
// keyed events precede unkeyed ones at the same instant (every real key is
// below the KeyNone sentinel).
func TestKeyedOrderAtInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }

	// Schedule out of key order, all at t=10 from t=0 (same schedAt).
	e.Schedule(10, func() { got = append(got, 999) }) // unkeyed: fires last
	e.AfterArgKeyed(10, 7, rec, 7)
	e.AfterArgKeyed(10, 2, rec, 2)
	e.AfterArgKeyed(10, 5, rec, 5)
	e.AfterArgKeyed(10, 0, rec, 0)
	e.Run()

	want := []int{0, 2, 5, 7, 999}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v (canonical key order, unkeyed last)", got, want)
		}
	}
}

// TestKeyedOrderSchedAtDominates checks that scheduling time outranks the
// key: an event scheduled earlier (smaller schedAt) fires before a
// same-deadline event scheduled later, even when the later one has a smaller
// key. This is what makes the comparator an extension of the engine's
// original FIFO tiebreak rather than a reordering of it.
func TestKeyedOrderSchedAtDominates(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(arg any) { got = append(got, arg.(int)) }

	e.AfterArgKeyed(10, 9, rec, 9) // schedAt 0
	e.Schedule(5, func() {
		e.AfterArgKeyed(5, 1, rec, 1) // same deadline 10, schedAt 5
	})
	e.Run()

	if len(got) != 2 || got[0] != 9 || got[1] != 1 {
		t.Fatalf("fired %v, want [9 1] (earlier schedAt wins over smaller key)", got)
	}
}

// TestHeadKeyPrefix pins the HeadKey peek the sharded merge loop depends on:
// it reports the live head's (at, schedAt, key) triple, sweeps tombstones,
// and reports ok=false on an empty queue.
func TestHeadKeyPrefix(t *testing.T) {
	e := NewEngine()
	if _, _, _, ok := e.HeadKey(); ok {
		t.Fatal("empty engine reported a head")
	}

	fn := func(any) {}
	ev := e.AfterArgKeyed(10, 3, fn, nil)
	e.Schedule(20, func() {})

	at, schedAt, key, ok := e.HeadKey()
	if !ok || at != 10 || schedAt != 0 || key != 3 {
		t.Fatalf("HeadKey = (%v, %v, %d, %v), want (10, 0, 3, true)", at, schedAt, key, ok)
	}

	// Cancel the keyed head: the peek must sweep the tombstone and report
	// the unkeyed event with the KeyNone sentinel.
	e.Cancel(ev)
	at, schedAt, key, ok = e.HeadKey()
	if !ok || at != 20 || schedAt != 0 || key != KeyNone {
		t.Fatalf("after cancel HeadKey = (%v, %v, %d, %v), want (20, 0, %d, true)",
			at, schedAt, key, ok, KeyNone)
	}

	e.Run()
	if _, _, _, ok := e.HeadKey(); ok {
		t.Fatal("drained engine reported a head")
	}
}

// TestAdvanceTo pins the clock-positioning primitive the sharded executor
// uses to align engines on a global tick or the end of a run: forward moves
// are exact, backward moves panic.
func TestAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(42)
	if e.Now() != 42 {
		t.Fatalf("Now = %v after AdvanceTo(42)", e.Now())
	}
	e.AdvanceTo(42) // idempotent
	mustPanic(t, "backward AdvanceTo", func() { e.AdvanceTo(41) })
}

// TestRunBeforeBound pins the window primitive of the sharded executor: it
// fires exactly the events whose (at, schedAt, key) prefix sorts strictly
// below the bound, skips cancelled heads, and leaves the clock at the last
// event fired.
func TestRunBeforeBound(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(v any) { got = append(got, v.(int)) }
	e.AfterArg(5, rec, 1)
	e.AfterArgKeyed(10, 3, rec, 2) // (10, 0, 3)
	e.AfterArg(10, rec, 3)         // (10, 0, KeyNone)

	// (10, -1, 0) covers every event firing before 10 and nothing at 10.
	e.RunBefore(10, -1, 0)
	if len(got) != 1 || got[0] != 1 || e.Now() != 5 {
		t.Fatalf("RunBefore(10, -1, 0) fired %v, now %v; want [1] at 5", got, e.Now())
	}

	// (10, 0, KeyNone) is where an unkeyed event scheduled at 0 for 10
	// sits: the keyed event at that instant fires, the unkeyed one does not.
	e.RunBefore(10, 0, KeyNone)
	if len(got) != 2 || got[1] != 2 || e.Now() != 10 {
		t.Fatalf("RunBefore(10, 0, KeyNone) fired %v, now %v; want [1 2] at 10", got, e.Now())
	}
	if at, schedAt, key, ok := e.HeadKey(); !ok || at != 10 || schedAt != 0 || key != KeyNone {
		t.Fatalf("HeadKey = (%v, %v, %d, %v), want the unkeyed event", at, schedAt, key, ok)
	}

	// A cancelled head is swept, not fired, and does not stop the window.
	dead := e.AfterArg(2, rec, 4)
	e.AfterArg(3, rec, 5)
	e.Cancel(dead)
	e.RunBefore(20, -1, 0)
	if want := []int{1, 2, 3, 5}; !slices.Equal(got, want) || e.Now() != 13 {
		t.Fatalf("fired %v, now %v; want %v at 13", got, e.Now(), want)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after the last window", e.Pending())
	}
}
