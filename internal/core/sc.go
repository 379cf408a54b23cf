package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"weakorder/internal/explore"
	"weakorder/internal/mem"
)

// SCCheck decides whether a recorded execution is sequentially consistent in
// Lamport's sense: does there exist a single total order of all its accesses,
// consistent with each processor's program order, in which every operation
// with a read component returns the value written by the most recent
// operation with a write component on the same location (or the initial value
// if none)?
//
// This is the "verifying sequential consistency" problem, NP-hard in general;
// the implementation is an exhaustive replay search on the shared exploration
// kernel (internal/explore): state deduplication over (frontier, memory) plus
// the kernel's conflict-driven partial-order reduction, which is fast for the
// execution sizes produced by litmus tests and the randomized contract
// experiments (tens of events per processor).
//
// SCCheck looks only at the events (per-processor sequences of accesses with
// bound values); any Completed order on the execution is ignored, since the
// question is precisely whether some legal total order exists.
func SCCheck(e *mem.Execution, init map[mem.Addr]mem.Value) (*SCWitness, error) {
	return SCCheckOpt(e, init, SCOptions{})
}

// SCOptions tunes SCCheckOpt; the zero value is SCCheck's behavior.
type SCOptions struct {
	// FullExploration disables the partial-order reduction, expanding every
	// enabled replay step of every search state. The escape hatch mirroring
	// model.Explorer's: differential tests pin that it never changes answers.
	FullExploration bool
	// MaxStates bounds the number of distinct search states (0 = the kernel's
	// DefaultMaxStates safety net). Exceeding it aborts with an error
	// satisfying errors.Is(err, explore.ErrStateBudget).
	MaxStates int
	// Workers selects the search width, passed through to the kernel (0 or 1
	// one worker, n > 1 that many workers, negative auto-sized from the par
	// budget). The SC verdict is width-independent, but when an execution has
	// several witnessing orders a parallel search may return any of them —
	// VerifyWitness accepts them all.
	Workers int
}

// SCCheckOpt is SCCheck with explicit exploration options.
func SCCheckOpt(e *mem.Execution, init map[mem.Addr]mem.Value, opts SCOptions) (*SCWitness, error) {
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid execution: %w", err)
	}
	byProc := e.ByProc()
	s := &scSystem{
		exec:   e,
		byProc: byProc,
		next:   make([]int, len(byProc)),
	}
	// Pre-resolve the address universe to dense indices once, so the hot
	// replay loop works on a flat value slice instead of a map: collect every
	// address the execution or the initial memory mentions, sort for
	// canonicity, then index each event's address ahead of time. The dense
	// index doubles as the footprint bit when it fits in 64.
	addrSet := make(map[mem.Addr]bool)
	for _, ev := range e.Events {
		addrSet[ev.Addr] = true
	}
	for a := range init {
		addrSet[a] = true
	}
	addrs := make([]mem.Addr, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	idx := make(map[mem.Addr]int, len(addrs))
	for i, a := range addrs {
		idx[a] = i
	}
	s.memory = make([]mem.Value, len(addrs))
	for a, v := range init {
		s.memory[idx[a]] = v
	}
	s.addrOf = make([]int, e.Len())
	s.bitOf = make([]uint64, e.Len())
	for _, ev := range e.Events {
		ai := idx[ev.Addr]
		s.addrOf[ev.ID] = ai
		if ai < 64 {
			s.bitOf[ev.ID] = uint64(1) << ai
		}
	}
	// Per-processor suffix footprints: suffix[p][i] over-approximates every
	// access in byProc[p][i:]. Computed once; shared (read-only) by clones.
	s.suffix = make([][]explore.Footprint, len(byProc))
	for p, evs := range byProc {
		sf := make([]explore.Footprint, len(evs)+1)
		for i := len(evs) - 1; i >= 0; i-- {
			ev := e.Event(evs[i])
			fp := sf[i+1]
			bit := s.bitOf[ev.ID]
			if bit == 0 {
				fp.Wild = true
			} else {
				if ev.Op.Reads() {
					fp.Reads |= bit
				}
				if ev.Op.Writes() {
					fp.Writes |= bit
				}
			}
			fp.Sync = fp.Sync || ev.Op.IsSync()
			sf[i] = fp
		}
		s.suffix[p] = sf
	}

	x := explore.Explorer{
		MaxStates:       opts.MaxStates,
		FullExploration: opts.FullExploration,
		Workers:         opts.Workers,
		// Replay keys are (frontier, memory): the relative order in which
		// synchronization operations on different locations were serialized
		// is not part of the question being asked.
		VisibleSyncOrder: false,
		// A blocked replay — the recorded read value unreachable from here —
		// is an expected dead end of the search, not a modeling bug.
		AllowStuck: true,
	}
	var order []mem.EventID
	st, err := x.Run(s, func(f explore.TransitionSystem) bool {
		order = append([]mem.EventID(nil), f.(*scSystem).order...)
		return false // first witness suffices
	})
	if err != nil {
		return nil, fmt.Errorf("core: SC check: %w", err)
	}
	if order != nil {
		return &SCWitness{SC: true, Order: order}, nil
	}
	return &SCWitness{SC: false, States: st.States}, nil
}

// SCWitness is the result of SCCheck: either a witnessing total order or a
// proof of exhaustion (all interleavings explored without success).
type SCWitness struct {
	SC bool
	// Order is a witnessing total order of event IDs when SC is true.
	Order []mem.EventID
	// States is the number of distinct search states explored when SC is
	// false (diagnostic; depends on whether reduction was enabled).
	States int
}

// String implements fmt.Stringer.
func (w *SCWitness) String() string {
	if !w.SC {
		return fmt.Sprintf("not sequentially consistent (exhausted %d states)", w.States)
	}
	parts := make([]string, len(w.Order))
	for i, id := range w.Order {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return "SC witness order: " + strings.Join(parts, " < ")
}

// scSystem adapts the replay search to explore.TransitionSystem. A state is
// the per-processor frontier into the recorded event sequences plus the
// current memory; a step replays one processor's next event. A write is
// always enabled; a read is enabled iff memory holds the recorded value; an
// RMW needs its read component to match, and then applies its write. Each
// processor is its own agent, and a frozen frontier event (read awaiting its
// recorded value) is woken only by writes to its location — declared as the
// wake footprint — so the kernel's reduction applies unchanged.
type scSystem struct {
	exec   *mem.Execution
	byProc [][]mem.EventID
	addrOf []int                 // per event ID: dense index of the event's address
	bitOf  []uint64              // per event ID: footprint bit of the address (0 = none)
	suffix [][]explore.Footprint // per proc: footprint of the event suffix from each index

	next   []int       // per-processor frontier into byProc
	memory []mem.Value // dense, indexed by the pre-resolved address index
	order  []mem.EventID
}

// Name implements explore.TransitionSystem.
func (s *scSystem) Name() string { return "sc-replay" }

// Clone implements explore.TransitionSystem. The recorded execution and the
// derived static tables are immutable and shared.
func (s *scSystem) Clone() explore.TransitionSystem {
	c := *s
	c.next = append([]int(nil), s.next...)
	c.memory = append([]mem.Value(nil), s.memory...)
	c.order = append([]mem.EventID(nil), s.order...)
	return &c
}

// frontier returns processor p's next unreplayed event.
func (s *scSystem) frontier(p int) (mem.Event, bool) {
	i := s.next[p]
	if i >= len(s.byProc[p]) {
		return mem.Event{}, false
	}
	return s.exec.Event(s.byProc[p][i]), true
}

// Steps implements explore.TransitionSystem. Processor order is canonical:
// enabledness is a function of (frontier, memory), which is exactly the state
// key, so key-equal states list position-aligned steps.
func (s *scSystem) Steps() []explore.Step {
	var steps []explore.Step
	for p := range s.byProc {
		ev, ok := s.frontier(p)
		if !ok {
			continue
		}
		if ev.Op.Reads() && s.memory[s.addrOf[ev.ID]] != ev.Value {
			continue
		}
		steps = append(steps, explore.Step{
			Proc: p,
			Info: explore.Info{Agent: p, Addr: ev.Addr, Op: ev.Op, AddrBit: s.bitOf[ev.ID]},
		})
	}
	return steps
}

// Apply implements explore.TransitionSystem.
func (s *scSystem) Apply(t explore.Step) error {
	ev, ok := s.frontier(t.Proc)
	if !ok {
		return fmt.Errorf("sc-replay: P%d exhausted", t.Proc)
	}
	if ev.Op.Reads() && s.memory[s.addrOf[ev.ID]] != ev.Value {
		return fmt.Errorf("sc-replay: P%d read not enabled at %s", t.Proc, ev.Access)
	}
	s.next[t.Proc]++
	s.order = append(s.order, ev.ID)
	if ev.Op.Writes() {
		v := ev.Value
		if ev.Op == mem.OpSyncRMW {
			v = ev.WValue
		}
		s.memory[s.addrOf[ev.ID]] = v
	}
	return nil
}

// Done implements explore.TransitionSystem.
func (s *scSystem) Done() bool {
	for p := range s.byProc {
		if s.next[p] < len(s.byProc[p]) {
			return false
		}
	}
	return true
}

// AppendKey implements explore.TransitionSystem: (frontier, memory), a
// fixed-shape varint sequence, hence prefix-free for a given execution.
// Memory is determined by the multiset of applied writes only through the
// frontier in general — two different interleavings with the same frontier
// can differ in memory — so both parts are needed.
func (s *scSystem) AppendKey(key []byte) []byte {
	for _, n := range s.next {
		key = binary.AppendUvarint(key, uint64(n))
	}
	for _, v := range s.memory {
		key = binary.AppendVarint(key, int64(v))
	}
	return key
}

// Prune implements explore.TransitionSystem: replays are finite.
func (s *scSystem) Prune() bool { return false }

// Footprints implements explore.TransitionSystem: each processor's future is
// the static footprint of its remaining event suffix. A disabled frontier
// read is enabled only by the memory at its location coming to hold the
// recorded value — a write to that location by some other processor — so the
// location is the processor's wake footprint; everything else about
// enabledness (the frontier position) is the processor's own state.
func (s *scSystem) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	for p := range s.byProc {
		af := explore.AgentFootprints{Future: s.suffix[p][s.next[p]]}
		if ev, ok := s.frontier(p); ok && ev.Op.Reads() && s.memory[s.addrOf[ev.ID]] != ev.Value {
			if bit := s.bitOf[ev.ID]; bit != 0 {
				af.Wake.Reads = bit
			} else {
				af.Wake.Wild = true
			}
		}
		buf = append(buf, af)
	}
	return buf
}

// VerifyWitness checks that a claimed witness order actually serializes the
// execution legally: it must be a permutation of all events, consistent with
// program order, with every read returning the most recent write (or the
// initial value). Used by tests and by downstream consumers that want to
// double-check SCCheck's positive answers.
func VerifyWitness(e *mem.Execution, init map[mem.Addr]mem.Value, order []mem.EventID) error {
	if len(order) != e.Len() {
		return fmt.Errorf("witness has %d events, execution has %d", len(order), e.Len())
	}
	seen := make([]bool, e.Len())
	lastIdx := make(map[mem.ProcID]int)
	memory := make(map[mem.Addr]mem.Value, len(init))
	for a, v := range init {
		memory[a] = v
	}
	first := make(map[mem.ProcID]bool)
	for _, id := range order {
		if id < 0 || int(id) >= e.Len() || seen[id] {
			return fmt.Errorf("witness is not a permutation (event %d)", id)
		}
		seen[id] = true
		ev := e.Event(id)
		if prev, ok := lastIdx[ev.Proc]; ok || first[ev.Proc] {
			if ev.Index != prev+1 {
				return fmt.Errorf("witness violates program order on P%d: index %d after %d", ev.Proc, ev.Index, prev)
			}
		} else if ev.Index != 0 {
			return fmt.Errorf("witness violates program order on P%d: first index %d", ev.Proc, ev.Index)
		}
		lastIdx[ev.Proc] = ev.Index
		first[ev.Proc] = true
		if ev.Op.Reads() && memory[ev.Addr] != ev.Value {
			return fmt.Errorf("witness read mismatch at %s: memory holds %d", ev.Access, memory[ev.Addr])
		}
		if ev.Op.Writes() {
			v := ev.Value
			if ev.Op == mem.OpSyncRMW {
				v = ev.WValue
			}
			memory[ev.Addr] = v
		}
	}
	return nil
}
