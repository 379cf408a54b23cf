package model

import (
	"sort"

	"weakorder/internal/core"
	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Explorer exhaustively enumerates the behaviors of a Machine by adapting it
// to the shared exploration kernel (internal/explore): depth-first search
// over its nondeterministic transitions with state deduplication by canonical
// key and conflict-driven partial-order reduction. The key mode determines
// what the deduplicated enumeration preserves; see KeyMode.
type Explorer struct {
	// MaxStates bounds the number of distinct states visited (0 = the
	// DefaultMaxStates safety net). Exceeding it aborts with an error
	// satisfying errors.Is(err, ErrStateBudget).
	MaxStates int
	// Mode selects the state-key granularity. The zero value (KeyState) is
	// correct for final-state/litmus enumeration.
	Mode KeyMode
	// MaxTraceOps, when positive, prunes any path whose recorded trace
	// exceeds this many memory operations. Programs with unbounded spin
	// loops have infinitely many executions of unbounded length; under
	// KeyResult/KeyExecution (whose keys embed history) a bound is the only
	// way to terminate. Pruned paths are counted in Stats.Truncated, so a
	// nonzero count flags the enumeration as length-bounded rather than
	// exhaustive.
	MaxTraceOps int
	// FullExploration disables the partial-order reduction: every enabled
	// transition of every state is expanded. The escape hatch for debugging
	// and for the differential tests that pin POR soundness.
	FullExploration bool
	// FullKeys, when true, deduplicates on the full canonical key encoding
	// instead of its 128-bit digest. The digest path is what production
	// sweeps use (constant memory per visited state, no per-state
	// allocation); the full-key path is collision-free by construction and
	// exists as a debug cross-check — tests explore both ways and assert
	// identical Stats.
	FullKeys bool
	// Workers selects the exploration width, passed through to the kernel:
	// 0 or 1 one worker, n > 1 that many workers sharing one search, negative
	// auto-sized from the par budget. Any width produces the same outcome
	// set; visit order and reduced-mode Stats may vary above width 1. See
	// explore.Explorer.Workers.
	Workers int
}

// DefaultMaxStates is the safety net applied when Explorer.MaxStates is 0.
const DefaultMaxStates = explore.DefaultMaxStates

// ErrStateBudget reports that exploration exceeded MaxStates. Visit returns
// it wrapped with the machine name; check with errors.Is.
var ErrStateBudget = explore.ErrStateBudget

// Stats summarizes one exploration.
type Stats = explore.Stats

// machineSystem adapts a Machine to the kernel's TransitionSystem: it carries
// the key mode and trace bound, translates Transition to explore.Step (adding
// the machine's StepInfo), and presents the enabled steps in a canonical
// order. The machines emit deliveries in internal list order, which is not a
// function of the state key (equivalent states reached along different paths
// hold their pending lists in different cross-group orders), so the adapter
// sorts by (Kind, Proc, Addr) — a total order on any one state's steps, since
// per-(agent, addr) FIFO delivery makes at most one delivery per (Proc, Addr)
// pair enabled at once — giving the kernel the position-aligned step lists
// its per-state masks require.
type machineSystem struct {
	m           Machine
	mode        KeyMode
	maxTraceOps int
}

func (s *machineSystem) Name() string { return s.m.Name() }

func (s *machineSystem) Clone() explore.TransitionSystem {
	return &machineSystem{m: s.m.Clone(), mode: s.mode, maxTraceOps: s.maxTraceOps}
}

func (s *machineSystem) Steps() []explore.Step {
	ts := s.m.Transitions()
	steps := make([]explore.Step, len(ts))
	for i, t := range ts {
		steps[i] = explore.Step{Kind: uint8(t.Kind), Proc: t.Proc, Aux: int64(t.Aux), Info: s.m.StepInfo(t)}
	}
	sort.SliceStable(steps, func(a, b int) bool {
		x, y := steps[a], steps[b]
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		if x.Proc != y.Proc {
			return x.Proc < y.Proc
		}
		return x.Info.Addr < y.Info.Addr
	})
	return steps
}

func (s *machineSystem) Apply(t explore.Step) error {
	return s.m.Apply(Transition{Kind: TransKind(t.Kind), Proc: t.Proc, Aux: int(t.Aux)})
}

func (s *machineSystem) Done() bool { return s.m.Done() }

func (s *machineSystem) AppendKey(key []byte) []byte { return s.m.AppendKey(s.mode, key) }

func (s *machineSystem) Prune() bool {
	return s.maxTraceOps > 0 && s.m.Trace().Len() > s.maxTraceOps
}

func (s *machineSystem) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	return s.m.Footprints(buf)
}

// Visit runs the exploration, calling fn on every distinct completed machine
// (Done() true, deduplicated under Mode). fn returning false stops early.
// Visit reports statistics via the returned Stats even on early stop.
func (x *Explorer) Visit(m Machine, fn func(Machine) bool) (Stats, error) {
	k := explore.Explorer{
		MaxStates:       x.MaxStates,
		FullExploration: x.FullExploration,
		FullKeys:        x.FullKeys,
		Workers:         x.Workers,
		// KeyExecution keys embed the global sync log, so the relative order
		// of sync steps on different locations is observable; coarser modes
		// only see sync effects through their memory locations.
		VisibleSyncOrder: x.Mode >= KeyExecution,
	}
	sys := &machineSystem{m: m, mode: x.Mode, maxTraceOps: x.MaxTraceOps}
	return k.Run(sys, func(s explore.TransitionSystem) bool {
		return fn(s.(*machineSystem).m)
	})
}

// Outcomes collects the set of distinct Results (the paper's notion: all read
// values plus final memory) the machine can produce. It forces at least
// KeyResult granularity so deduplication cannot merge distinct Results.
func (x *Explorer) Outcomes(m Machine) (core.OutcomeSet, Stats, error) {
	sub := *x
	if sub.Mode < KeyResult {
		sub.Mode = KeyResult
	}
	out := make(core.OutcomeSet)
	st, err := sub.Visit(m, func(f Machine) bool {
		out.Add(f.Result())
		return true
	})
	return out, st, err
}

// FinalStates collects the distinct final states (registers + memory),
// sufficient for litmus conditions; KeyState granularity suffices.
func (x *Explorer) FinalStates(m Machine, fn func(*program.FinalState) bool) (Stats, error) {
	return x.Visit(m, func(f Machine) bool { return fn(f.Final()) })
}

// Enumerator adapts (program, machine factory, explorer) to the
// core.ExecutionEnumerator interface so core.CheckProgram can quantify over
// all idealized executions. The factory is normally NewSC — Definition 3 is
// stated over the idealized architecture — and exploration runs at
// KeyExecution granularity so every distinct happens-before relation is
// produced.
type Enumerator struct {
	Prog     *program.Program
	Explorer *Explorer
	// New builds the machine; nil means NewSC.
	New func(*program.Program) Machine
}

var _ core.ExecutionEnumerator = (*Enumerator)(nil)

// IdealizedExecutions implements core.ExecutionEnumerator.
func (e *Enumerator) IdealizedExecutions(fn func(*mem.Execution) bool) error {
	x := e.Explorer
	if x == nil {
		x = &Explorer{}
	}
	sub := *x
	if sub.Mode < KeyExecution {
		sub.Mode = KeyExecution
	}
	mk := e.New
	if mk == nil {
		mk = func(p *program.Program) Machine { return NewSC(p) }
	}
	_, err := sub.Visit(mk(e.Prog), func(f Machine) bool { return fn(f.Trace()) })
	return err
}
