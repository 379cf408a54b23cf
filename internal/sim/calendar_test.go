package sim

import (
	"errors"
	"testing"
)

// recSink records deliveries so tests can check their dispatch order.
type recSink struct {
	log *[]int64
}

func (r recSink) DeliverEvent(src int, msg any) {
	*r.log = append(*r.log, int64(src)*1000000+msg.(int64))
}

// dispatch is one oracle log entry: the ordinal of the At/DeliverAt call that
// scheduled the event, and the time the event ran.
type dispatch struct {
	ord int
	at  Time
}

// oracleSink logs a delivery whose src carries its schedule ordinal.
type oracleSink struct {
	e   *Engine
	log *[]dispatch
}

func (s oracleSink) DeliverEvent(src int, msg any) {
	*s.log = append(*s.log, dispatch{ord: src, at: s.e.Now()})
}

// TestDispatchOrderOracle checks the engine against its specification:
// every scheduled event is dispatched exactly once, at its scheduled time,
// and the dispatch log is strictly ascending in (time, schedule ordinal).
// Sorted order plus exactly-once dispatch means the engine always ran the
// minimum pending (time, ordinal) pair. The storm mixes self-rescheduling
// callbacks, value-typed deliveries, same-cycle bursts and delays that
// straddle the wheel horizon, and is large enough that overflow and wheel
// events collide in the same cycle, so a wrong tie-break or horizon test
// reorders the log.
func TestDispatchOrderOracle(t *testing.T) {
	for _, seed := range []uint64{12345, 1, 2} {
		e := NewEngine(0, 0)
		var sched []Time // sched[ord] is the time event ord was scheduled for
		var log []dispatch
		sink := oracleSink{e: e, log: &log}
		// Deterministic LCG so the storm is reproducible.
		state := seed
		next := func(n uint64) uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return (state >> 33) % n
		}
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			ord := len(sched)
			sched = append(sched, at)
			if depth > 0 && next(4) == 0 {
				e.DeliverAt(at, sink, ord, nil)
				return
			}
			e.At(at, func() {
				log = append(log, dispatch{ord: ord, at: e.Now()})
				if depth >= 9 {
					return
				}
				k := int(next(3)) // 0..2 children
				for c := 0; c < k; c++ {
					var d Time
					switch next(4) {
					case 0:
						d = 0 // same-cycle batch
					case 1:
						d = Time(next(8)) // dense near future
					case 2:
						d = Time(next(200)) // mid horizon
					default:
						d = wheelSize - 2 + Time(next(6)) // straddles the horizon
					}
					schedule(e.Now()+d, depth+1)
				}
			})
		}
		for i := 0; i < 400; i++ {
			schedule(Time(next(uint64(2*wheelSize))), 0)
		}
		if err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: pending = %d after drain", seed, e.Pending())
		}
		if len(log) != len(sched) {
			t.Fatalf("seed %d: dispatched %d events, scheduled %d", seed, len(log), len(sched))
		}
		seen := make([]bool, len(sched))
		for i, d := range log {
			if seen[d.ord] {
				t.Fatalf("seed %d: event %d dispatched twice", seed, d.ord)
			}
			seen[d.ord] = true
			if d.at != sched[d.ord] {
				t.Fatalf("seed %d: event %d ran at %d, scheduled for %d", seed, d.ord, d.at, sched[d.ord])
			}
			if i > 0 {
				p := log[i-1]
				if p.at > d.at || (p.at == d.at && p.ord >= d.ord) {
					t.Fatalf("seed %d: dispatch %d: %+v after %+v, want ascending (at, ord)", seed, i, d, p)
				}
			}
		}
	}
}

// TestCalendarOverflowMerge pins the subtle tie: an event scheduled from far
// away lands in the overflow heap, a later-scheduled event for the same cycle
// lands in the wheel, and the earlier schedule (smaller seq, here the
// overflow one) must still dispatch first.
func TestCalendarOverflowMerge(t *testing.T) {
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			e := mk(0, 0)
			target := Time(2 * wheelSize)
			var got []int
			e.At(target, func() { got = append(got, 1) }) // beyond horizon: overflow
			e.At(target-10, func() {                      // within horizon of target when it runs
				e.At(target, func() { got = append(got, 2) }) // wheel
			})
			e.At(target, func() { got = append(got, 3) }) // overflow again
			if err := e.Run(nil); err != nil {
				t.Fatal(err)
			}
			if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
				t.Fatalf("order = %v, want [1 3 2] (schedule order within the cycle)", got)
			}
		})
	}
}

// TestDeliverAtOrdersWithAt checks value-typed deliveries interleave with
// closure events in strict schedule order.
func TestDeliverAtOrdersWithAt(t *testing.T) {
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			e := mk(0, 0)
			var log []int64
			s := recSink{log: &log}
			e.DeliverAt(5, s, 1, int64(10))
			e.At(5, func() { log = append(log, -1) })
			e.DeliverAt(5, s, 2, int64(20))
			e.At(3, func() { log = append(log, -2) })
			if err := e.Run(nil); err != nil {
				t.Fatal(err)
			}
			want := []int64{-2, 1000010, -1, 2000020}
			if len(log) != len(want) {
				t.Fatalf("log = %v, want %v", log, want)
			}
			for i := range want {
				if log[i] != want[i] {
					t.Fatalf("log = %v, want %v", log, want)
				}
			}
		})
	}
}

// TestDeliverAtPastFails mirrors the At past-time contract for the delivery
// fast path.
func TestDeliverAtPastFails(t *testing.T) {
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			e := mk(0, 0)
			var log []int64
			s := recSink{log: &log}
			e.At(10, func() { e.DeliverAt(5, s, 0, int64(1)) })
			if err := e.Run(nil); !errors.Is(err, ErrSchedulePast) {
				t.Fatalf("err = %v, want ErrSchedulePast", err)
			}
			if len(log) != 0 {
				t.Error("past-time delivery must be dropped")
			}
		})
	}
}

// TestCalendarSteadyStateAllocFree: once the wheel's slot buffers are warm, a
// self-rescheduling workload must not allocate per event.
func TestCalendarSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(0, 0)
	n := 0
	limit := 0
	var tick func()
	tick = func() {
		n++
		if n < limit {
			e.After(1, tick)
		}
	}
	// Warm every slot: time keeps advancing across runs, so the whole wheel
	// must have seen at least one event before allocations are counted.
	n, limit = 0, 2*wheelSize
	e.After(0, tick)
	if err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	limit = 64
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		e.After(0, tick)
		if err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state run allocated %.1f objects per run, want 0", allocs)
	}
}
