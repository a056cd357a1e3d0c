package sim

import (
	"slices"
	"testing"
)

// orderRec is the oracle's copy of one scheduled event.
type orderRec struct {
	at, schedAt Time
	key         int32
	seq         uint64
	id          int
}

func (a orderRec) before(b orderRec) bool {
	return entry{at: a.at, schedAt: a.schedAt, key: a.key, seq: a.seq}.before(
		entry{at: b.at, schedAt: b.schedAt, key: b.key, seq: b.seq})
}

// fuzzLanes is the lane count of FuzzEngineOrder, for After and for Push
// lanes alike; lane i has the fixed delay i+1 and key i, so lane keys
// collide with each other and with AfterArgKeyed keys.
const fuzzLanes = 3

// runOrderOps drives one engine through the op stream in data, checking
// each firing against a sorted-slice oracle on (at, schedAt, key, seq), and
// returns the ids in firing order. With viaLanes false, lane After ops go
// through AfterArgKeyed with the lane's key and delay instead; Push ops,
// whose scheduling instant need not be the engine's clock, always use lanes.
//
// Each op is two bytes, a kind and a parameter p:
//
//	0 Schedule at now+p%8       4 Cancel a recorded handle
//	1 AfterArg p%8              5 Step
//	2 AfterArgKeyed p%8, key    6 re-arm: cancel and re-schedule one far
//	3 lane p%fuzzLanes After      timer 4+p%32 times
//	7 lane p%fuzzLanes Push at the later of now+p%8, the lane's tail and its
//	  delay, scheduled one delay earlier (before or after now)
func runOrderOps(t *testing.T, data []byte, viaLanes bool) []int {
	e := NewEngine()
	var fired []int
	var pending []orderRec // oracle, kept sorted
	var handles []Event
	var handleIDs []int
	nextID := 0

	recs := map[int]orderRec{}
	search := func(r orderRec) (int, bool) {
		return slices.BinarySearchFunc(pending, r, func(a, b orderRec) int {
			switch {
			case a.id == b.id:
				return 0
			case a.before(b):
				return -1
			}
			return 1
		})
	}
	record := func(at, schedAt Time, key int32) int {
		id := nextID
		nextID++
		r := orderRec{at: at, schedAt: schedAt, key: key, seq: uint64(id), id: id}
		i, _ := search(r)
		pending = slices.Insert(pending, i, r)
		recs[id] = r
		return id
	}
	drop := func(id int) {
		if i, ok := search(recs[id]); ok {
			pending = slices.Delete(pending, i, i+1)
		}
	}
	fire := func(v any) {
		id := v.(int)
		if len(pending) == 0 || pending[0].id != id {
			t.Fatalf("fired %d, oracle head %v", id, pending)
		}
		if e.Now() != pending[0].at {
			t.Fatalf("event %d fired at %v, want %v", id, e.Now(), pending[0].at)
		}
		fired = append(fired, id)
		pending = pending[1:]
	}
	lanes := make([]*Lane, fuzzLanes)
	pushLanes := make([]*Lane, fuzzLanes)
	pushTail := make([]Time, fuzzLanes)
	for i := range lanes {
		lanes[i] = e.NewLane(int32(i), fire)
		pushLanes[i] = e.NewLane(int32(i), fire)
	}
	track := func(ev Event, id int) {
		handles = append(handles, ev)
		handleIDs = append(handleIDs, id)
	}
	var far Event
	farID := -1
	peakLive := 0

	for k := 0; k+1 < len(data); k += 2 {
		p := int(data[k+1])
		d := Time(p % 8)
		switch data[k] % 8 {
		case 0:
			id := record(e.Now()+d, e.Now(), KeyNone)
			track(e.Schedule(e.Now()+d, func() { fire(id) }), id)
		case 1:
			id := record(e.Now()+d, e.Now(), KeyNone)
			track(e.AfterArg(d, fire, id), id)
		case 2:
			key := int32(p % 5)
			id := record(e.Now()+d, e.Now(), key)
			track(e.AfterArgKeyed(d, key, fire, id), id)
		case 3:
			i := p % fuzzLanes
			ld := Time(i + 1)
			id := record(e.Now()+ld, e.Now(), int32(i))
			if viaLanes {
				lanes[i].After(ld, id)
			} else {
				e.AfterArgKeyed(ld, int32(i), fire, id)
			}
		case 4:
			if len(handles) > 0 {
				i := p % len(handles)
				if handles[i].Pending() {
					drop(handleIDs[i])
				}
				e.Cancel(handles[i])
			}
		case 5:
			e.Step()
		case 6:
			for n := 0; n < 4+p%32; n++ {
				if farID >= 0 && far.Pending() {
					drop(farID)
				}
				e.Cancel(far)
				farID = record(e.Now()+1000, e.Now(), KeyNone)
				far = e.AfterArg(1000, fire, farID)
			}
		case 7:
			i := p % fuzzLanes
			ld := Time(i + 1)
			at := max(e.Now()+d, pushTail[i], ld)
			id := record(at, at-ld, int32(i))
			pushLanes[i].Push(at, at-ld, id)
			pushTail[i] = at
		}
		if e.Pending() != len(pending) {
			t.Fatalf("engine has %d pending events, oracle %d", e.Pending(), len(pending))
		}
		if at, schedAt, key, ok := e.HeadKey(); ok != (len(pending) > 0) ||
			ok && (at != pending[0].at || schedAt != pending[0].schedAt || key != pending[0].key) {
			t.Fatalf("HeadKey = (%v, %v, %d, %v), oracle head %v", at, schedAt, key, ok, pending)
		}
		peakLive = max(peakLive, e.Pending())
		if len(e.queue) > 2*peakLive+2*compactFloor {
			t.Fatalf("queue holds %d entries, peak live %d", len(e.queue), peakLive)
		}
	}
	e.Run()
	if len(pending) != 0 {
		t.Fatalf("drained engine left %d oracle events unfired", len(pending))
	}
	return fired
}

// FuzzEngineOrder checks the engine's firing order against a sorted-slice
// oracle on (at, schedAt, key, seq) across random streams of Schedule,
// AfterArg, AfterArgKeyed, lane After and Push, and Cancel calls interleaved
// with Steps — including cancel churn heavy enough to force tombstone
// compaction — and that sending the lane After events through AfterArgKeyed
// instead fires the same sequence.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{3, 0, 3, 1, 2, 0, 0, 0, 5, 0, 3, 2, 5, 0})
	f.Add([]byte{6, 200, 1, 3, 6, 90, 4, 0, 5, 0, 6, 255, 5, 0, 2, 4})
	f.Add([]byte{3, 0, 3, 0, 3, 3, 2, 1, 2, 6, 0, 1, 5, 0, 5, 0, 3, 1, 4, 1})
	f.Add([]byte{7, 0, 7, 3, 2, 1, 5, 0, 7, 4, 3, 0, 5, 0, 7, 9, 7, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // longer streams only slow minimisation down
		}
		lane := runOrderOps(t, data, true)
		keyed := runOrderOps(t, data, false)
		if !slices.Equal(lane, keyed) {
			t.Fatalf("lane order %v, AfterArgKeyed order %v", lane, keyed)
		}
	})
}
