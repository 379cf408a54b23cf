// Package explore is the single state-space exploration kernel behind every
// enumerator in the repository: the operational-model explorer
// (model.Explorer), the sequential-consistency replay search (core.SCCheck),
// and — through the model layer — the fuzzer's idealized-execution
// enumeration. A client implements the TransitionSystem interface (enabled
// steps, apply, canonical append-key, per-agent footprints) and the kernel
// provides the work-stealing depth-first search (one worker or several —
// see Explorer.Workers), state deduplication, budgets, and conflict-driven
// partial-order reduction.
//
// # Partial-order reduction
//
// The reduction combines two classic techniques, both keyed on the paper's
// conflict predicate (Definition 3: two accesses conflict when they target
// the same location and at least one writes):
//
//   - Persistent sets (Godefroid) reduce the number of *states* visited. At
//     each state the kernel selects a subset of the enabled steps — all
//     enabled steps of an agent set A closed under two attraction rules —
//     such that anything agents outside A can ever do commutes with the
//     subset. Agent q is attracted into A when (1) q's future footprint
//     conflicts with the footprint of an A-agent's *currently enabled* steps
//     (q could eventually perform a step dependent on the chosen subset), or
//     (2) q's future footprint conflicts with an A-agent's *wake* footprint
//     (q could enable a currently frozen step of an A-agent, whose execution
//     would be same-agent-dependent on the subset). Exploring only the
//     subset still reaches every terminal state, so outcome sets are
//     preserved. Rule 2 is why the construction is sound without inspecting
//     disabled steps: the transition system declares, per agent, an
//     over-approximation of the accesses *by others* that can unfreeze any
//     of its currently disabled steps, and guarantees everything else about
//     a disabled step's enabledness depends on the agent itself (the
//     "frozen gate" contract).
//
//   - Sleep sets (Godefroid) reduce the number of *transitions* re-explored
//     between already-visited states: after fully exploring the subtree below
//     step t, commuting sibling steps carry t in their sleep set, pruning the
//     symmetric interleavings. Because deduplication matches states, a state
//     revisited with a smaller skip mask re-expands exactly the steps that
//     were skipped before but are expandable now, storing the intersection
//     (the sleep-set/state-matching algorithm of Godefroid's thesis, ch. 5).
//
// Independence is conservative: steps of the same agent never commute, two
// synchronization steps never commute (their global commit order is part of
// execution-level keys), a fence step never commutes with a write or another
// fence (its effect spans every location), and otherwise steps commute
// exactly when their declared single-access footprints do not conflict. A transition system must
// only declare footprints whose commutation is real at the level of canonical
// keys: if two steps are independent under Independent, applying them in
// either order from any state where both are enabled must produce
// key-identical states, and neither may disable the other. Steps that cannot
// promise this set Opaque and are excluded from all reduction. See DESIGN.md
// §"Exploration kernel" for the soundness argument and the per-machine
// footprint declarations.
//
// With FullExploration set, both reductions are disabled and the search
// degenerates to the plain exhaustive DFS over every enabled step.
package explore

import (
	"errors"
	"fmt"
	"math/bits"

	"weakorder/internal/mem"
)

// Info is the reduction-relevant footprint of a step, declared by the
// transition system.
type Info struct {
	// Agent is the logical process the step acts for. Steps of the same
	// agent never commute. The agent need not be the processor named in the
	// step's identity: a write propagation in a cache-based machine is a step
	// of its *source* processor (whose outstanding-access counter it
	// decrements), delivered at a destination.
	Agent int
	// Addr and Op describe the step as one access in the paper's vocabulary;
	// they feed mem.Conflicts and the sync test.
	Addr mem.Addr
	Op   mem.Op
	// AddrBit is Addr under the system's dense footprint indexing (the same
	// indexing Footprint masks use); zero means the address has no dense bit
	// and the step's footprint degrades to Wild.
	AddrBit uint64
	// Opaque marks a step with an undeclarable footprint: it conflicts with
	// everything and never participates in reduction.
	Opaque bool
	// Fence marks a step whose effect additionally spans every location at
	// once — e.g. a full memory fence that snaps the issuing processor's view
	// of all write histories. A fence is dependent on every write and on every
	// other fence, regardless of address: committing a write before the fence
	// leaves the fencing processor permanently fresh on that location, while
	// committing it after leaves a stale view available. Steps that only read
	// (and other non-fence, non-write steps) still commute with a fence.
	Fence bool
}

// footprint views the step's single access as a Footprint.
func (i Info) footprint() Footprint {
	if i.Opaque {
		return Footprint{Opaque: true}
	}
	fp := Footprint{Sync: i.Op.IsSync(), Fence: i.Fence}
	if i.AddrBit == 0 {
		fp.Wild = true
		return fp
	}
	if i.Op.Reads() {
		fp.Reads = i.AddrBit
	}
	if i.Op.Writes() {
		fp.Writes = i.AddrBit
	}
	return fp
}

// Step is one enabled transition of a TransitionSystem: a system-private
// identity (Kind, Proc, Aux) that Apply interprets, plus the Info the reducer
// needs. The identity must be stable while the step stays enabled: if a step
// sits in a sleep set across the application of an independent step, the same
// (Kind, Proc, Aux) triple must still denote the same action afterwards.
type Step struct {
	Kind uint8
	Proc int
	Aux  int64
	Info
}

// String implements fmt.Stringer.
func (s Step) String() string {
	if s.Opaque {
		return fmt.Sprintf("step(%d,P%d,%d)", s.Kind, s.Proc, s.Aux)
	}
	return fmt.Sprintf("step(%d,P%d,%d:%s x%d)", s.Kind, s.Proc, s.Aux, s.Op, s.Addr)
}

// same reports identity (not footprint) equality.
func (s Step) same(o Step) bool { return s.Kind == o.Kind && s.Proc == o.Proc && s.Aux == o.Aux }

// Independent reports whether two enabled steps commute: they must act for
// different agents, neither may be opaque, and their accesses must not
// conflict in the paper's sense (same location, at least one write —
// mem.Conflicts). A fence step (Info.Fence) is additionally dependent on
// every write and every other fence whatever their addresses — its effect
// spans all locations. With visibleSyncOrder set, two synchronization steps
// never commute even on different locations: the global sync commit order is
// part of execution-level state keys (the sync log that orders
// happens-before), so swapping two syncs produces key-distinct states.
// Dependence is the conservative default.
func Independent(a, b Step, visibleSyncOrder bool) bool {
	if a.Opaque || b.Opaque || a.Agent == b.Agent {
		return false
	}
	if a.Fence && (b.Fence || b.Op.Writes()) || b.Fence && a.Op.Writes() {
		return false
	}
	if visibleSyncOrder && a.Op.IsSync() && b.Op.IsSync() {
		return false
	}
	return a.Addr != b.Addr || !mem.Conflicts(a.Op, b.Op)
}

// Footprint is a set of possible accesses: the locations that may be read or
// written (as bitmasks over a system-chosen dense address indexing), whether
// a synchronization or opaque step may occur, and whether statically unknown
// locations may be touched.
type Footprint struct {
	Reads  uint64 // locations that may be read (dense index bitmask)
	Writes uint64 // locations that may be written
	Wild   bool   // may access statically unknown locations (reads and writes)
	Sync   bool   // may include a synchronization step
	Opaque bool   // may include an opaque step
	Fence  bool   // may include a fence step (dependent on all writes and fences)
}

// AgentFootprints is what a transition system declares per agent for the
// persistent-set construction.
type AgentFootprints struct {
	// Future over-approximates every step the agent may still perform, from
	// the current state to the end of every execution.
	Future Footprint
	// Wake over-approximates the accesses OTHER agents can perform that may
	// enable a currently disabled step of this agent. By declaring it, the
	// system promises the complement — the "frozen gate" contract: a disabled
	// step of agent p becomes enabled only through steps of p itself or
	// through steps whose footprints conflict with p's Wake. Systems whose
	// enabling gates all depend on the agent's own state alone (the common
	// case) leave it zero. See DESIGN.md.
	Wake Footprint
}

// Conflicts reports whether a step drawn from one footprint may depend on a
// step drawn from the other; visibleSyncOrder mirrors Independent's flag.
func (f Footprint) Conflicts(g Footprint, visibleSyncOrder bool) bool {
	if f.Opaque || g.Opaque {
		return true
	}
	if f.Fence && (g.Fence || g.Wild || g.Writes != 0) || g.Fence && (f.Wild || f.Writes != 0) {
		return true
	}
	if visibleSyncOrder && f.Sync && g.Sync {
		return true
	}
	if f.Wild && (g.Wild || g.Reads|g.Writes != 0) {
		return true
	}
	if g.Wild && f.Reads|f.Writes != 0 {
		return true
	}
	return f.Writes&(g.Reads|g.Writes) != 0 || g.Writes&f.Reads != 0
}

// TransitionSystem is a nondeterministic system under exploration. Each
// instance is used by one goroutine at a time, but clones may move between
// the kernel's workers, so Clone must return a deep, independent copy.
type TransitionSystem interface {
	// Name identifies the system in error messages.
	Name() string
	// Clone returns an independent deep copy.
	Clone() TransitionSystem
	// Steps lists the currently enabled steps. The order must be canonical:
	// two states with equal keys must list position-aligned steps (same
	// kinds, agents, and footprints at each index), since the kernel stores
	// positional masks per visited state. The kernel calls Steps exactly once
	// per state, before AppendKey, so systems may use it to normalize lazy
	// state.
	Steps() []Step
	// Apply performs one enabled step.
	Apply(Step) error
	// Done reports whether a step-less state is a legitimate terminal state.
	Done() bool
	// AppendKey appends the canonical, prefix-free binary encoding of the
	// state to key and returns the extended slice.
	AppendKey(key []byte) []byte
	// Prune reports whether the current path should be cut short (counted in
	// Stats.Truncated); systems with unbounded executions bound them here.
	Prune() bool
	// Footprints appends one AgentFootprints per agent to buf and returns
	// it. Every enabled step's Agent must index into the result.
	Footprints(buf []AgentFootprints) []AgentFootprints
}

// DefaultMaxStates is the safety net applied when Explorer.MaxStates is 0.
const DefaultMaxStates = 2_000_000

// ErrStateBudget reports that exploration exceeded MaxStates. Run returns it
// wrapped with the system name; check with errors.Is.
var ErrStateBudget = errors.New("explore: state budget exhausted")

// StateBudgetError is the concrete error Run returns when exploration
// exceeds MaxStates. It satisfies errors.Is(err, ErrStateBudget) and carries
// the number of distinct states visited when the budget tripped, so callers
// can print an actionable retuning hint without rerunning under -metrics.
type StateBudgetError struct {
	System string // TransitionSystem.Name()
	States int    // distinct states visited when the budget was exhausted
}

// Error implements error.
func (e *StateBudgetError) Error() string {
	return fmt.Sprintf("explore: exploring %s: state budget exhausted after %d distinct states", e.System, e.States)
}

// Unwrap makes errors.Is(err, ErrStateBudget) hold.
func (e *StateBudgetError) Unwrap() error { return ErrStateBudget }

// Explorer configures the exploration kernel. The zero value explores with
// partial-order reduction, digest-deduplicated states, and the
// DefaultMaxStates budget.
type Explorer struct {
	// MaxStates bounds the number of distinct states visited (0 = the
	// DefaultMaxStates safety net). Exceeding it aborts with an error
	// satisfying errors.Is(err, ErrStateBudget).
	MaxStates int
	// FullExploration disables the partial-order reduction: every enabled
	// step of every state is expanded. The escape hatch for debugging and for
	// the differential tests that pin POR soundness.
	FullExploration bool
	// FullKeys deduplicates on the full canonical key encoding instead of
	// its 128-bit digest. The digest path is what production sweeps use; the
	// full-key path is collision-free by construction and exists as a debug
	// cross-check.
	FullKeys bool
	// VisibleSyncOrder declares that the relative completion order of
	// synchronization operations on *different* locations is part of the
	// state key (execution-level keys embedding the global sync log). It
	// makes all sync pairs mutually dependent; without it, same-location
	// conflicts alone order syncs. Clients whose keys record sync history
	// (model.KeyExecution) must set it.
	VisibleSyncOrder bool
	// AllowStuck treats step-less states that are not Done as ordinary dead
	// ends instead of deadlock errors. The SC replay search sets it: a
	// blocked replay (recorded read value unreachable) is an expected dead
	// end, not a modeling bug.
	AllowStuck bool
	// Workers selects the exploration width: how many workers share one
	// work-stealing frontier and striped visited store. 0 or 1 runs one
	// worker, which visits states in serial pre-order. n > 1 runs exactly n
	// workers (the extra n-1 slots are registered with the process-wide par
	// budget so nested sweeps shrink accordingly). A negative value
	// auto-sizes: the run claims as many spare slots as the par budget has
	// free, possibly none (one worker). Every width yields the same
	// terminal-state set — see DESIGN.md §6 — but the order in which final()
	// observes them, and Stats under reduction, may vary run to run for
	// widths above 1.
	Workers int
}

// Stats summarizes one exploration.
type Stats struct {
	States      int // distinct states visited
	Transitions int // steps applied
	Finals      int // distinct terminal states reached
	Truncated   int // paths pruned by TransitionSystem.Prune (0 means exhaustive)
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	if s.Truncated > 0 {
		return fmt.Sprintf("%d states, %d transitions, %d final states, %d paths truncated",
			s.States, s.Transitions, s.Finals, s.Truncated)
	}
	return fmt.Sprintf("%d states, %d transitions, %d final states", s.States, s.Transitions, s.Finals)
}

// maskAll returns a mask with the low n bits set (n <= 64).
func maskAll(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// reducer holds the per-exploration scratch for the persistent-set closure.
type reducer struct {
	syncOrder bool
	fps       []AgentFootprints
	stepFP    []Footprint // per agent: union footprint of its enabled steps
	stepsOf   []uint64    // per agent: mask of its enabled steps
	attract   []uint64    // attract[p]: agents that must join A when p is in A
}

// persistentMask returns the mask of a smallest persistent subset of steps:
// all enabled steps of an agent set A closed under attraction. Agent q is
// attracted by p in A when q's future footprint conflicts with p's enabled
// steps (q could come to perform a step dependent on the chosen subset) or
// with p's wake footprint (q could unfreeze a disabled step of p, whose
// execution would be same-agent-dependent on p's chosen steps). Every agent
// with an enabled step is tried as the closure seed; ties keep the earliest
// seed, so the choice is deterministic. Falls back to the full mask when any
// agent is out of range or there are more than 64 agents (sound: merely
// unreduced).
func (r *reducer) persistentMask(sys TransitionSystem, steps []Step) uint64 {
	all := maskAll(len(steps))
	r.fps = sys.Footprints(r.fps[:0])
	n := len(r.fps)
	if n > 64 {
		return all
	}
	if cap(r.stepsOf) < n {
		r.stepsOf = make([]uint64, n)
		r.stepFP = make([]Footprint, n)
		r.attract = make([]uint64, n)
	}
	stepsOf := r.stepsOf[:n]
	stepFP := r.stepFP[:n]
	attract := r.attract[:n]
	for i := range stepsOf {
		stepsOf[i] = 0
		stepFP[i] = Footprint{}
	}
	var seeds uint64 // agents holding at least one enabled step
	for i, s := range steps {
		if s.Agent < 0 || s.Agent >= n {
			return all
		}
		stepsOf[s.Agent] |= uint64(1) << i
		seeds |= uint64(1) << s.Agent
		fp := s.footprint()
		sfp := &stepFP[s.Agent]
		sfp.Reads |= fp.Reads
		sfp.Writes |= fp.Writes
		sfp.Wild = sfp.Wild || fp.Wild
		sfp.Sync = sfp.Sync || fp.Sync
		sfp.Opaque = sfp.Opaque || fp.Opaque
		sfp.Fence = sfp.Fence || fp.Fence
	}
	// Attraction ranges over ALL agents, enabled or not: a currently frozen
	// agent pulled into A constrains the closure through its wake footprint
	// exactly like an enabled one (its steps must not fire behind the chosen
	// subset's back).
	for p := 0; p < n; p++ {
		var c uint64
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			if r.fps[q].Future.Conflicts(stepFP[p], r.syncOrder) || r.fps[q].Future.Conflicts(r.fps[p].Wake, r.syncOrder) {
				c |= uint64(1) << q
			}
		}
		attract[p] = c
	}
	best := all
	for s := seeds; s != 0; s &= s - 1 {
		seed := bits.TrailingZeros64(s)
		agents := uint64(1) << seed
		for {
			grown := agents
			for a := agents; a != 0; a &= a - 1 {
				grown |= attract[bits.TrailingZeros64(a)]
			}
			if grown == agents {
				break
			}
			agents = grown
		}
		var p uint64
		for a := agents; a != 0; a &= a - 1 {
			p |= stepsOf[bits.TrailingZeros64(a)]
		}
		if bits.OnesCount64(p) < bits.OnesCount64(best) {
			best = p
		}
	}
	return best
}

// Run explores the system, calling final on every distinct terminal state
// (deduplicated by canonical key). final returning false stops early. Run
// reports statistics via the returned Stats even on early stop or error.
//
// The search is a depth-first traversal over explicit per-worker stacks
// (search, in parallel.go), so state spaces bounded only by MaxStates cannot
// overflow the goroutine stack; at width 1 it visits states in the pre-order
// of the step lists. Run allocates its working state locally, so one
// Explorer may be shared by concurrent explorations.
func (x *Explorer) Run(sys TransitionSystem, final func(TransitionSystem) bool) (Stats, error) {
	w, release := x.resolveWorkers()
	defer release()
	return x.search(sys, final, w)
}
