package explore

// White-box tests for the kernel's building blocks — the work-stealing deque
// and the striped visited store — plus regression coverage for the
// wide-state (>64 enabled steps) expansion path, the visited store's
// grow-on-demand allocation, and the visited-store growth benchmark.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"weakorder/internal/mem"
)

func TestWSDequeOrder(t *testing.T) {
	d := &wsDeque{}
	mk := func(i int) workItem { return workItem{sleep: []Step{{Proc: i}}} }
	id := func(it workItem) int { return it.sleep[0].Proc }
	for i := 0; i < 5; i++ {
		d.push(mk(i))
	}
	if it, ok := d.pop(); !ok || id(it) != 4 {
		t.Fatalf("pop: got %v/%v, want item 4 (LIFO owner side)", it, ok)
	}
	if it, ok := d.steal(); !ok || id(it) != 0 {
		t.Fatalf("steal: got %v/%v, want item 0 (FIFO thief side)", it, ok)
	}
	if it, ok := d.steal(); !ok || id(it) != 1 {
		t.Fatalf("steal: got %v/%v, want item 1", it, ok)
	}
	if it, ok := d.pop(); !ok || id(it) != 3 {
		t.Fatalf("pop: got %v/%v, want item 3", it, ok)
	}
	if it, ok := d.pop(); !ok || id(it) != 2 {
		t.Fatalf("pop: got %v/%v, want item 2", it, ok)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque succeeded")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal on empty deque succeeded")
	}
	if d.size.Load() != 0 {
		t.Fatalf("empty deque reports size %d", d.size.Load())
	}
	// Steal enough to trigger head compaction and verify order survives it.
	for i := 0; i < 100; i++ {
		d.push(mk(i))
	}
	for i := 0; i < 80; i++ {
		if it, ok := d.steal(); !ok || id(it) != i {
			t.Fatalf("steal %d across compaction: got %v/%v", i, it, ok)
		}
	}
	for i := 99; i >= 80; i-- {
		if it, ok := d.pop(); !ok || id(it) != i {
			t.Fatalf("pop %d across compaction: got %v/%v", i, it, ok)
		}
	}
}

func TestStripedVisitedMonotonic(t *testing.T) {
	for _, fullKeys := range []bool{false, true} {
		t.Run(fmt.Sprintf("fullKeys=%v", fullKeys), func(t *testing.T) {
			v := newStripedVisited(fullKeys, 100)
			key := []byte("state-a")
			all := maskAll(4)
			todo, isNew, over := v.visit(key, all, 0b1100)
			if over || !isNew || todo != 0b0011 {
				t.Fatalf("first visit: todo=%04b isNew=%v over=%v, want 0011 true false", todo, isNew, over)
			}
			// Revisit with a different skip: the steps stored as skipped but
			// expandable now come back, and the stored mask shrinks to the
			// intersection.
			todo, isNew, over = v.visit(key, all, 0b1010)
			if over || isNew || todo != 0b0100 {
				t.Fatalf("revisit: todo=%04b isNew=%v over=%v, want 0100 false false", todo, isNew, over)
			}
			// The same revisit again: nothing left to hand out.
			if todo, _, _ = v.visit(key, all, 0b1010); todo != 0 {
				t.Fatalf("repeated revisit handed out %04b twice", todo)
			}
			// A sleep-free revisit drains the rest; the mask can only shrink.
			if todo, _, _ = v.visit(key, all, 0); todo != 0b1000 {
				t.Fatalf("final revisit: todo=%04b, want 1000", todo)
			}
			if todo, _, _ = v.visit(key, all, 0); todo != 0 {
				t.Fatalf("drained state handed out %04b", todo)
			}

			// Budget: reservations, not map sizes, are what the budget counts,
			// so exactly budget distinct states commit at any race outcome.
			v2 := newStripedVisited(fullKeys, 2)
			for i := 0; i < 2; i++ {
				if _, _, over := v2.visit([]byte{byte(i)}, 1, 0); over {
					t.Fatalf("state %d tripped a budget of 2", i)
				}
			}
			if _, _, over := v2.visit([]byte{9}, 1, 0); !over {
				t.Fatal("third distinct state did not trip a budget of 2")
			}
			if _, isNew, over := v2.visit([]byte{1}, 1, 0); over || isNew {
				t.Fatal("revisit of a committed state tripped the budget")
			}
		})
	}
}

// fanSystem is a two-level tree: the root offers width one-shot opaque steps,
// each leading to a distinct terminal state. With width > 64 it regression-
// tests the wide-state path: every step past index 63 must still be expanded
// (the packed masks cannot describe it), at one worker and at several.
type fanSystem struct {
	width  int
	picked int // -1 at the root
}

func (f *fanSystem) Name() string { return "fan" }

func (f *fanSystem) Clone() TransitionSystem { c := *f; return &c }

func (f *fanSystem) Steps() []Step {
	if f.picked >= 0 {
		return nil
	}
	steps := make([]Step, f.width)
	for i := range steps {
		steps[i] = Step{Proc: i, Info: Info{Agent: i, Opaque: true}}
	}
	return steps
}

func (f *fanSystem) Apply(t Step) error { f.picked = t.Proc; return nil }

func (f *fanSystem) Done() bool { return f.picked >= 0 }

func (f *fanSystem) AppendKey(key []byte) []byte {
	return binary.AppendVarint(key, int64(f.picked))
}

func (f *fanSystem) Prune() bool { return false }

func (f *fanSystem) Footprints(buf []AgentFootprints) []AgentFootprints {
	for i := 0; i < f.width; i++ {
		buf = append(buf, AgentFootprints{Future: Footprint{Opaque: true}})
	}
	return buf
}

func TestManyStepsFullExpansion(t *testing.T) {
	const width = 70
	for _, workers := range []int{1, 3} {
		for _, fullExpl := range []bool{false, true} {
			x := &Explorer{Workers: workers, FullExploration: fullExpl}
			finals := 0
			st, err := x.Run(&fanSystem{width: width, picked: -1}, func(TransitionSystem) bool {
				finals++
				return true
			})
			if err != nil {
				t.Fatalf("workers=%d fullExpl=%v: %v", workers, fullExpl, err)
			}
			if st.States != width+1 || st.Finals != width || st.Transitions != width || finals != width {
				t.Fatalf("workers=%d fullExpl=%v: got %d states / %d transitions / %d finals (%d delivered), want %d/%d/%d",
					workers, fullExpl, st.States, st.Transitions, st.Finals, finals, width+1, width, width)
			}
		}
	}
}

// countSystem is a grid of independent per-agent counters: agents distinct,
// addresses distinct, so full exploration visits (limit+1)^agents states —
// a pure visited-store stress with trivial per-state work.
type countSystem struct {
	limit int
	vals  []int
}

func (c *countSystem) Name() string { return "count" }

func (c *countSystem) Clone() TransitionSystem {
	return &countSystem{limit: c.limit, vals: append([]int(nil), c.vals...)}
}

func (c *countSystem) Steps() []Step {
	var steps []Step
	for i, v := range c.vals {
		if v < c.limit {
			steps = append(steps, Step{
				Proc: i,
				Info: Info{Agent: i, Addr: mem.Addr(i), Op: mem.OpWrite, AddrBit: uint64(1) << i},
			})
		}
	}
	return steps
}

func (c *countSystem) Apply(t Step) error { c.vals[t.Proc]++; return nil }

func (c *countSystem) Done() bool {
	for _, v := range c.vals {
		if v < c.limit {
			return false
		}
	}
	return true
}

func (c *countSystem) AppendKey(key []byte) []byte {
	for _, v := range c.vals {
		key = binary.AppendUvarint(key, uint64(v))
	}
	return key
}

func (c *countSystem) Prune() bool { return false }

func (c *countSystem) Footprints(buf []AgentFootprints) []AgentFootprints {
	for i, v := range c.vals {
		var fp Footprint
		if v < c.limit {
			fp.Writes = uint64(1) << i
		}
		buf = append(buf, AgentFootprints{Future: fp})
	}
	return buf
}

// TestVisitedStoreGrowsOnDemand pins that MaxStates is a limit, not a size
// hint: a 16-state exploration allocates the same small amount whether the
// budget is the default, fuzz.DefaultExplorer's 400k, or a client-chosen
// 1<<30 (a wocampd max_states). A store sized from the budget allocates
// megabytes per Run here.
func TestVisitedStoreGrowsOnDemand(t *testing.T) {
	const runs, maxBytes = 4, 1 << 20
	for _, budget := range []int{0, 400_000, 1 << 30} {
		for _, workers := range []int{1, 2} {
			x := &Explorer{MaxStates: budget, Workers: workers}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				st, err := x.Run(&countSystem{limit: 3, vals: make([]int, 2)}, func(TransitionSystem) bool { return true })
				if err != nil {
					t.Fatalf("MaxStates=%d workers=%d: %v", budget, workers, err)
				}
				if st.Finals != 1 {
					t.Fatalf("MaxStates=%d workers=%d: %d final states, want 1", budget, workers, st.Finals)
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxBytes {
				t.Errorf("MaxStates=%d workers=%d: %d bytes allocated per Run, want at most %d",
					budget, workers, per, maxBytes)
			}
		}
	}
}

// BenchmarkExplorerVisited measures the visited store's allocation behavior
// on a 4096-state full exploration. The store is not pre-sized from
// MaxStates, so allocs/op and B/op include the shard maps' growth from empty
// to 4096 entries. Compare against BENCH_explore.json when touching the
// store.
func BenchmarkExplorerVisited(b *testing.B) {
	const limit, agents = 7, 4 // (limit+1)^agents = 4096 states
	want := 1
	for i := 0; i < agents; i++ {
		want *= limit + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := &Explorer{FullExploration: true, MaxStates: want + 1}
		st, err := x.Run(&countSystem{limit: limit, vals: make([]int, agents)},
			func(TransitionSystem) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if st.States != want {
			b.Fatalf("visited %d states, want %d", st.States, want)
		}
	}
}
