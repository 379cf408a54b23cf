package explore_test

// Differential tests pinning the kernel's width contract: the worker width
// never changes what is observable. The determinism matrix sweeps the
// litmus corpus across widths, reduction on/off, and both key modes; the
// equivalence sweep compares width 1 with width 2 over the random corpus; and
// the budget test pins the state count the budget error carries.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"weakorder/internal/explore"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

// widthMatrix returns the deduplicated worker widths the determinism tests
// sweep: one worker, two workers (the smallest width where races exist), and
// one per core.
func widthMatrix() []int {
	widths := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		widths = append(widths, n)
	}
	return widths
}

// exploreFinalSet explores the machine exhaustively (no early stop) at the
// given width and returns the canonical final-state set with the stats.
func exploreFinalSet(x *model.Explorer, m model.Machine) (string, model.Stats, error) {
	var keys []string
	st, err := x.FinalStates(m, func(fs *program.FinalState) bool {
		keys = append(keys, renderFinal(fs))
		return true
	})
	return joinSorted(keys), st, err
}

// TestExploreWorkerWidthDeterminism is the golden determinism matrix: over
// the whole litmus corpus and every machine (broken fixtures included),
// widths {1, 2, GOMAXPROCS} × reduction on/off × digest/full keys must all
// produce byte-identical final-state sets, and with reduction off — where
// every reachable state is expanded exactly once in full, making the count a
// property of the graph rather than the visit order — identical Stats.States
// and Stats.Transitions as well. With reduction on, widths may legitimately
// differ in states visited (a lost mask race re-expands the difference), but
// never in outcomes.
func TestExploreWorkerWidthDeterminism(t *testing.T) {
	widths := widthMatrix()
	type cell struct {
		test *litmus.Test
		f    litmus.Factory
	}
	var cells []cell
	for _, lt := range litmus.Corpus() {
		for _, f := range allFactories() {
			cells = append(cells, cell{lt, f})
		}
	}
	_, err := par.Map(cells, 0, func(_ int, c cell) (struct{}, error) {
		type combo struct {
			workers  int
			fullExpl bool
			fullKeys bool
		}
		var baseline string        // final set of the first combo
		fullStats := model.Stats{} // stats of the first reduction-off combo
		haveFullStats := false
		for _, w := range widths {
			for _, fullExpl := range []bool{false, true} {
				for _, fullKeys := range []bool{false, true} {
					cmb := combo{w, fullExpl, fullKeys}
					x := &model.Explorer{Workers: w, FullExploration: fullExpl, FullKeys: fullKeys}
					set, st, err := exploreFinalSet(x, c.f.New(c.test.Prog))
					if err != nil {
						return struct{}{}, fmt.Errorf("%s on %s %+v: %w", c.test.Name, c.f.Name, cmb, err)
					}
					if baseline == "" {
						baseline = set
					} else if set != baseline {
						return struct{}{}, fmt.Errorf("%s on %s %+v: final-state set differs from baseline\n--- got ---\n%s\n--- want ---\n%s",
							c.test.Name, c.f.Name, cmb, set, baseline)
					}
					if fullExpl {
						if !haveFullStats {
							fullStats, haveFullStats = st, true
						} else if st.States != fullStats.States || st.Transitions != fullStats.Transitions {
							return struct{}{}, fmt.Errorf("%s on %s %+v: full-exploration stats not width-invariant: got %d states/%d transitions, want %d/%d",
								c.test.Name, c.f.Name, cmb, st.States, st.Transitions, fullStats.States, fullStats.Transitions)
						}
					}
				}
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// parallelFinalSets explores the program on one machine at KeyState
// granularity at width 1 and at the given width (both with reduction on, the
// production configuration) and returns the canonical final-state sets. The
// skip decision reuses finalSets' protocol: a one-worker FULL exploration
// runs first, so skipping is deterministic, and any exploration that visits
// a subset of the reachable states — reduced, any width — fits the same
// budget.
func parallelFinalSets(f litmus.Factory, p *program.Program, workers int) (single, parallel string, skipped bool, err error) {
	collect := func(w int) (string, error) {
		x := &model.Explorer{MaxStates: diffMaxStates, Workers: w}
		var keys []string
		_, err := x.FinalStates(f.New(p), func(fs *program.FinalState) bool {
			keys = append(keys, renderFinal(fs))
			return true
		})
		return joinSorted(keys), err
	}
	full := &model.Explorer{MaxStates: diffMaxStates, FullExploration: true}
	_, err = full.FinalStates(f.New(p), func(*program.FinalState) bool { return true })
	if errors.Is(err, model.ErrStateBudget) {
		return "", "", true, nil
	}
	if err != nil {
		return "", "", false, err
	}
	if single, err = collect(1); err != nil {
		return "", "", false, err
	}
	parallel, err = collect(workers)
	return single, parallel, false, err
}

// TestParallelEquivalence is the width-1-vs-width-2 differential gate: on
// the random corpus (a subset under -short, which is how the CI POR gate
// runs it), every machine's final-state set at width 2 must be
// byte-identical to the one-worker run's.
func TestParallelEquivalence(t *testing.T) {
	factories := allFactories()
	corpus := randomCorpus(256)
	if testing.Short() {
		corpus = corpus[:64]
	}
	skipped := sweep(t, corpus, func(p *program.Program) (int, error) {
		n := 0
		for _, f := range factories {
			single, parallel, skip, err := parallelFinalSets(f, p, 2)
			if err != nil {
				return n, fmt.Errorf("%s on %s: %w", p.Name, f.Name, err)
			}
			if skip {
				n++
				continue
			}
			if single != parallel {
				return n, fmt.Errorf("%s on %s: width 2 changed the final-state set\n--- width 1 ---\n%s\n--- width 2 ---\n%s",
					p.Name, f.Name, single, parallel)
			}
		}
		return n, nil
	})
	if limit := len(corpus) * len(factories) / 10; skipped > limit {
		t.Fatalf("%d of %d cells skipped on state budget (limit %d) — corpus or budget needs retuning",
			skipped, len(corpus)*len(factories), limit)
	}
}

// TestStateBudgetErrorCount pins the budget error's payload at every width:
// it must satisfy errors.Is(err, ErrStateBudget) as before, and the concrete
// StateBudgetError must report exactly MaxStates distinct states — the count
// the message now prints so budget tuning needs no -metrics rerun.
func TestStateBudgetErrorCount(t *testing.T) {
	lt := litmus.Corpus()[0]
	f := allFactories()[0]
	const budget = 10
	for _, w := range []int{1, 3} {
		x := &model.Explorer{MaxStates: budget, Workers: w}
		_, err := x.FinalStates(f.New(lt.Prog), func(*program.FinalState) bool { return true })
		if !errors.Is(err, model.ErrStateBudget) {
			t.Fatalf("workers=%d: got %v, want a state-budget error", w, err)
		}
		var sbe *explore.StateBudgetError
		if !errors.As(err, &sbe) {
			t.Fatalf("workers=%d: error %v does not carry *explore.StateBudgetError", w, err)
		}
		if sbe.States != budget {
			t.Fatalf("workers=%d: budget error reports %d states, want %d", w, sbe.States, budget)
		}
	}
}
