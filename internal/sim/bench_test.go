package sim

import "testing"

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Pending() > 1024 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
}

func BenchmarkEngineHotLoop(b *testing.B) {
	// A self-rescheduling event — the steady-state pattern of a busy port.
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	b.ResetTimer()
	e.Run()
	if n != b.N {
		b.Fatalf("ran %d of %d", n, b.N)
	}
}

func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	evs := make([]Event, 0, 1024)
	for i := 0; i < b.N; i++ {
		evs = append(evs, e.Schedule(Time(i), func() {}))
		if len(evs) == 1024 {
			for _, ev := range evs {
				e.Cancel(ev)
			}
			evs = evs[:0]
			for e.Step() { // sweep tombstones so the queue stays bounded
			}
		}
	}
}

// BenchmarkEngineScheduleArgFire is the closure-free hot path: a
// package-scope callback plus a pointer argument, zero allocations per
// event.
func BenchmarkEngineScheduleArgFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var sink int
	bump := func(v any) { *v.(*int)++ }
	for i := 0; i < b.N; i++ {
		e.AfterArg(Time(i%1000), bump, &sink)
		if e.Pending() > 1024 {
			for e.Step() {
			}
		}
	}
	for e.Step() {
	}
	if sink != b.N {
		b.Fatalf("fired %d of %d", sink, b.N)
	}
}

// BenchmarkEngineChurn is the mixed steady-state pattern of a busy
// simulation: schedule, cancel half (retransmission timers disarmed by
// ACKs), fire the rest.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keep := e.Schedule(Time(2*i), func() {})
		kill := e.Schedule(Time(2*i+1), func() {})
		e.Cancel(kill)
		_ = keep
		e.Step()
	}
	for e.Step() {
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var x uint64
	for i := 0; i < b.N; i++ {
		x ^= r.Uint64()
	}
	_ = x
}

func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1)
	var x float64
	for i := 0; i < b.N; i++ {
		x += r.ExpFloat64()
	}
	_ = x
}

func BenchmarkTxTime(b *testing.B) {
	var t Time
	for i := 0; i < b.N; i++ {
		t += TxTime(1518, 400e9)
	}
	_ = t
}

// BenchmarkLaneDeliver models a fabric's link deliveries: 256 lanes, each
// re-filled as it drains, so every fire also arms the lane's next entry.
func BenchmarkLaneDeliver(b *testing.B) {
	e := NewEngine()
	const lanes = 256
	ls := make([]*Lane, lanes)
	n := 0
	for i := range ls {
		d := Time(100 + i)
		ls[i] = e.NewLane(int32(i), func(v any) {
			n++
			if n < b.N {
				v.(*Lane).After(d, v)
			}
		})
		for j := 0; j < 4; j++ {
			ls[i].After(d, ls[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N && e.Step() {
	}
}
