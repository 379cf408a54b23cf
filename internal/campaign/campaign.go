// Package campaign turns the fire-and-forget wofuzz/chaos campaigns into a
// resumable, cacheable, long-running service: the simulator as a shared,
// always-on memory-model oracle.
//
// Three pieces compose:
//
//   - Store is a digest-keyed result cache with an append-only on-disk log
//     (length-prefixed, per-frame checksummed, corrupt tails truncated — the
//     same conventions as internal/workload/tracefmt). The cache key is a
//     canonical digest of everything that can change a verdict — the program's
//     canonical binary encoding, the machine set, the state/trace budgets and
//     the fault schedule — and deliberately nothing that cannot (POR on/off
//     and exploration width are outcome-identical by the differential gates
//     pinned in CI, so they stay out of the key). Determinism is what makes
//     the cache sound: the same key always reproduces the same verdict, so a
//     hit can be answered without re-exploration.
//
//   - Runner executes a campaign Spec — the same program stream, verdicts and
//     JSON report as cmd/wofuzz — in deterministic seed order with the seed
//     fan-out scheduled on the internal/par pool, consulting the Store before
//     exploring and periodically writing an atomic checkpoint (next seed,
//     partial report) so a killed campaign resumes where it stopped. A
//     resumed campaign's final report is byte-identical to an uninterrupted
//     one: per-seed verdicts are pure functions of the spec, the report is
//     assembled in seed order, and nothing wall-clock-dependent is in it.
//
//   - Server exposes the oracle over HTTP/JSON: single-program submissions
//     answered from the cache when possible (with exploration-effort counters
//     that prove a hit did no exploration), campaign submissions scheduled in
//     the background, NDJSON progress streams, and crash recovery that
//     resumes checkpointed campaigns on restart.
package campaign

import (
	"fmt"
	"time"

	"weakorder/internal/program"
	"weakorder/internal/workload"
)

// Spec pins everything that determines a campaign's verdicts and report. Two
// runs with equal Specs produce byte-identical reports regardless of
// interruptions, pool widths, or cache state; the checkpoint embeds the Spec
// so a resume cannot silently continue under different parameters.
//
// Wall-clock budget is deliberately NOT part of the Spec: it changes when a
// campaign stops, never what any seed's verdict is, and a budget-stopped
// campaign resumes from its checkpoint like a killed one.
type Spec struct {
	// Mode selects the campaign type: "fuzz" (differential Definition-2
	// campaign, the default) or "chaos" (fault-injection campaign on the
	// timed machine).
	Mode string `json:"mode,omitempty"`
	// Seeds is the number of programs; program i uses BaseSeed+i.
	Seeds    int   `json:"seeds"`
	BaseSeed int64 `json:"base_seed"`
	// Machines is the -machines selection (CSV with the "weak", "all",
	// "broken" aliases); fuzz mode only.
	Machines string `json:"machines,omitempty"`
	// MaxStates bounds each exploration (0 = the fuzzing default).
	MaxStates int `json:"max_states,omitempty"`
	// POROff disables the partial-order reduction. Outcome sets are
	// identical either way (pinned in CI), so this is not part of the cache
	// key — only of the Spec, because it is an execution knob the user set.
	POROff bool `json:"por_off,omitempty"`
	// Minimize delta-debugs violations to minimal reproducers.
	Minimize bool `json:"minimize,omitempty"`
	// ExploreWorkers is the kernel width per exploration (0 or 1 = one worker,
	// negative = auto-size from the par budget). Outcome-identical at every
	// width, hence also not in the cache key.
	ExploreWorkers int `json:"explore_workers,omitempty"`
	// FaultSeed and FaultRates configure chaos mode; program i uses
	// FaultSeed+i. FaultRates is the -fault-rates syntax ("" = defaults).
	FaultSeed  int64  `json:"fault_seed,omitempty"`
	FaultRates string `json:"fault_rates,omitempty"`
}

// Validate rejects specs the Runner cannot execute.
func (s *Spec) Validate() error {
	switch s.Mode {
	case "", ModeFuzz, ModeChaos:
	default:
		return fmt.Errorf("campaign: unknown mode %q (want %q or %q)", s.Mode, ModeFuzz, ModeChaos)
	}
	if s.Seeds < 1 {
		return fmt.Errorf("campaign: seeds %d out of range (want at least 1)", s.Seeds)
	}
	return nil
}

// Campaign modes.
const (
	ModeFuzz  = "fuzz"
	ModeChaos = "chaos"
)

// mode returns the effective mode.
func (s *Spec) mode() string {
	if s.Mode == "" {
		return ModeFuzz
	}
	return s.Mode
}

// Verdict is one (program, options) result — the unit the Store caches. It
// carries everything a report or a server response needs, so a cache hit
// reconstructs a byte-identical report entry without re-exploration. States
// records the exploration effort the verdict originally cost; it is reported
// to clients (a hit answers with the stored figure and zero new work) but
// kept out of the campaign report, which must not depend on cache state.
type Verdict struct {
	DRF0       bool     `json:"drf0,omitempty"`
	Skipped    bool     `json:"skipped,omitempty"` // state budget exhausted
	SCOutcomes int      `json:"sc_outcomes,omitempty"`
	RacyNonSC  bool     `json:"racy_non_sc,omitempty"`
	Violating  []string `json:"violating,omitempty"`
	// Reproducers maps violating machine name to the minimized program in
	// litmus text form; ReproducersGo holds the ready-to-paste Builder code
	// (cached so a resumed or cache-hit campaign re-emits identical files).
	Reproducers   map[string]string `json:"reproducers,omitempty"`
	ReproducersGo map[string]string `json:"reproducers_go,omitempty"`
	// States is the total number of distinct states the verdict's
	// explorations visited when it was first computed.
	States int64 `json:"states,omitempty"`

	// Chaos-mode fields.
	Completed       bool   `json:"completed,omitempty"`
	CompletionError string `json:"completion_error,omitempty"`
	Contained       bool   `json:"contained,omitempty"`
	Faults          int    `json:"faults,omitempty"`
	Retries         int64  `json:"retries,omitempty"`
	Tolerated       int64  `json:"tolerated,omitempty"`
}

// SeedReport is one program's entry in the campaign report: the Verdict plus
// the campaign coordinates that locate it. The JSON field names match the
// pre-service wofuzz report so downstream tooling keeps parsing.
type SeedReport struct {
	Index      int      `json:"index"`
	Seed       int64    `json:"seed"`
	Name       string   `json:"name"`
	Config     string   `json:"config"`
	DRF0       bool     `json:"drf0"`
	Skipped    bool     `json:"skipped,omitempty"`
	SCOutcomes int      `json:"sc_outcomes,omitempty"`
	RacyNonSC  bool     `json:"racy_non_sc,omitempty"`
	Violating  []string `json:"violating,omitempty"`
	// Reproducers maps violating machine name to the minimized program in
	// litmus text form (only when Spec.Minimize is on).
	Reproducers map[string]string `json:"reproducers,omitempty"`

	// Chaos-mode fields.
	FaultSeed       int64  `json:"fault_seed,omitempty"`
	Completed       bool   `json:"completed,omitempty"`
	CompletionError string `json:"completion_error,omitempty"`
	Contained       bool   `json:"contained,omitempty"`
	Faults          int    `json:"faults,omitempty"`
	Retries         int64  `json:"retries,omitempty"`
	Tolerated       int64  `json:"tolerated,omitempty"`
}

// Report is the campaign's JSON report. It contains nothing wall-clock- or
// cache-dependent: a resumed campaign and an uninterrupted one marshal to
// identical bytes (the acceptance property the resume tests pin). Elapsed
// time and cache-hit counts are runtime observations, printed by the CLI and
// returned by the server, never embedded here.
type Report struct {
	Mode     string   `json:"mode"`
	Seeds    int      `json:"seeds"`
	BaseSeed int64    `json:"base_seed"`
	Machines []string `json:"machines,omitempty"`

	Checked    int `json:"checked"`
	Skipped    int `json:"skipped"`
	DRF0       int `json:"drf0,omitempty"`
	Racy       int `json:"racy,omitempty"`
	RacyNonSC  int `json:"racy_non_sc,omitempty"`
	Violations int `json:"violations,omitempty"`

	// Chaos-mode totals.
	Failures  int   `json:"failures,omitempty"`
	Faults    int   `json:"faults,omitempty"`
	Retries   int64 `json:"retries,omitempty"`
	Tolerated int64 `json:"tolerated,omitempty"`

	Programs []SeedReport `json:"programs"`
}

// ConfigFor varies the fuzz generator deterministically across campaign
// indices so a single run sweeps light/dense sync, RMW-heavy mixes, guarded
// conditionals, and three-processor programs without any randomness beyond
// the seed. (Moved verbatim from cmd/wofuzz so the CLI, the server, and the
// tests generate the identical program stream.)
func ConfigFor(i int) (string, workload.RandomConfig) {
	switch i % 6 {
	case 0:
		return "2p-default", workload.RandomConfig{Procs: 2, DataVars: 2, SyncVars: 1, Ops: 4}
	case 1:
		return "2p-sparse", workload.RandomConfig{Procs: 2, DataVars: 2, SyncVars: 1, Ops: 4, SyncDensity: 10}
	case 2:
		return "2p-rmw", workload.RandomConfig{Procs: 2, DataVars: 1, SyncVars: 2, Ops: 4, SyncDensity: 60, RMWPct: 70, FetchAddPct: 40}
	case 3:
		return "3p-dense", workload.RandomConfig{Procs: 3, DataVars: 1, SyncVars: 1, Ops: 3, SyncDensity: 70}
	case 4:
		return "2p-guarded", workload.RandomConfig{Procs: 2, DataVars: 2, SyncVars: 1, Ops: 3, SyncDensity: 50, CondPct: 50}
	default:
		return "2p-syncread", workload.RandomConfig{Procs: 2, DataVars: 1, SyncVars: 1, Ops: 4, SyncDensity: 50, SyncReadPct: 80}
	}
}

// ProgramFor generates fuzz-campaign program i: every 7th program comes from
// the guarded producer/consumer shape — the pattern the reserve-bit stall
// exists to protect — so the campaign always exercises that bug class
// directly.
func ProgramFor(baseSeed int64, i int) (cfgName string, p *program.Program) {
	seed := baseSeed + int64(i)
	if i%7 == 6 {
		return "guarded-mp", workload.RandomGuarded(seed, 1+i%2, i%3)
	}
	cfgName, cfg := ConfigFor(i)
	return cfgName, workload.Random(seed, cfg)
}

// ChaosProgramFor generates chaos-campaign program i: alternating guarded
// producer/consumer and DRF0-by-construction random programs, as the -chaos
// campaign always has.
func ChaosProgramFor(baseSeed int64, i int) *program.Program {
	seed := baseSeed + int64(i)
	if i%2 == 0 {
		return workload.RandomGuarded(seed, 2, 3)
	}
	return workload.RandomDRF(seed, 2, 2, 2)
}

// Summary is the runtime account of one Run: what the report deliberately
// omits. CacheHits counts seeds answered from the Store without exploration;
// Explored counts distinct states actually visited by this run.
type Summary struct {
	CacheHits int64         `json:"cache_hits"`
	Explored  int64         `json:"explored_states"`
	Elapsed   time.Duration `json:"-"`
}
