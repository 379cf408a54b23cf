package explore_test

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"testing"

	"weakorder/internal/explore"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// exploreWorkers sets the kernel width the BenchmarkExplorePOR/Full
// benchmarks run at. The default 1 is one worker — the baseline
// BENCH_explore.json records — so `go test -bench BenchmarkExplore
// -explore-workers 8` measures eight workers against it.
var exploreWorkers = flag.Int("explore-workers", 1, "explore kernel width for the explore benchmarks (1 = one worker)")

// runSuite runs the full litmus suite — every corpus test on every machine,
// broken fixtures included — exactly the way the production runner does
// (litmus.Run: reachability query with early stop once the outcome of
// interest is observed, trace-bounded like the golden report) and returns
// the summed exploration statistics. Note that at widths above 1 the summed
// stats may vary run to run: reduced-mode state counts and early-stop points
// depend on visit order, which parallel scheduling does not fix.
func runSuite(tb testing.TB, fullExpl bool, workers int) (states, transitions int) {
	tb.Helper()
	x := &model.Explorer{MaxTraceOps: 20, FullExploration: fullExpl, Workers: workers}
	for _, lt := range litmus.Corpus() {
		for _, f := range allFactories() {
			o, err := litmus.Run(lt, f, x)
			if err != nil {
				tb.Fatalf("%s on %s: %v", lt.Name, f.Name, err)
			}
			states += o.Stats.States
			transitions += o.Stats.Transitions
		}
	}
	return states, transitions
}

// exhaustSuite is runSuite without the early stop: every reachable state of
// every (test, machine) cell, the steeper measure of the reduction.
func exhaustSuite(tb testing.TB, fullExpl bool) (states, transitions int) {
	tb.Helper()
	x := &model.Explorer{FullExploration: fullExpl}
	for _, lt := range litmus.Corpus() {
		for _, f := range allFactories() {
			st, err := x.FinalStates(f.New(lt.Prog), func(*program.FinalState) bool { return true })
			if err != nil {
				tb.Fatalf("%s on %s: %v", lt.Name, f.Name, err)
			}
			states += st.States
			transitions += st.Transitions
		}
	}
	return states, transitions
}

// TestPORStatesBudget is the states-visited regression budget CI enforces.
// Two pins, both deterministic:
//
//   - the litmus suite as production runs it (reachability queries) must
//     keep needing at most 1/1.8 the states of full exploration, and the
//     absolute POR count must not creep past its recorded ceiling. (The bar
//     was 2x before the relaxed write-buffer machines joined the corpus: RMO
//     syncs are full fences, dependent on every write commit, so the
//     reduction around them is structurally thinner.);
//   - exhaustive enumeration must keep at least its recorded reduction
//     floor (the reduction is structurally smaller there: every final state
//     must still be produced, so only interior interleavings collapse).
//
// A failure means a footprint declaration got coarser (or a machine grew a
// new dependence) and the reduction quietly degraded — or the corpus
// changed, in which case regenerate BENCH_explore.json and retune these
// numbers in the same commit.
func TestPORStatesBudget(t *testing.T) {
	por, porTrans := runSuite(t, false, 1)
	full, fullTrans := runSuite(t, true, 1)
	t.Logf("litmus suite (reachability): POR %d states / %d transitions, full %d / %d (%.2fx states, %.2fx transitions)",
		por, porTrans, full, fullTrans, float64(full)/float64(por), float64(fullTrans)/float64(porTrans))
	if por*9 > full*5 {
		t.Errorf("POR needed %d states vs %d full — reduction below the 1.8x acceptance bar", por, full)
	}
	// ~10% above the value recorded in BENCH_explore.json.
	const maxPORStates = 8800
	if por > maxPORStates {
		t.Errorf("POR needed %d states, budget is %d — update BENCH_explore.json and this budget deliberately if the corpus grew", por, maxPORStates)
	}

	exPor, exPorTrans := exhaustSuite(t, false)
	exFull, exFullTrans := exhaustSuite(t, true)
	t.Logf("litmus suite (exhaustive): POR %d states / %d transitions, full %d / %d (%.2fx states, %.2fx transitions)",
		exPor, exPorTrans, exFull, exFullTrans, float64(exFull)/float64(exPor), float64(exFullTrans)/float64(exPorTrans))
	if exPor*13 > exFull*10 {
		t.Errorf("exhaustive POR visited %d states vs %d full — below the recorded 1.3x reduction floor", exPor, exFull)
	}
	if exPorTrans*2 > exFullTrans {
		t.Errorf("exhaustive POR applied %d transitions vs %d full — below the 2x transition floor", exPorTrans, exFullTrans)
	}
}

// BenchmarkExplorePOR measures the litmus suite under the reduced
// exploration; the states metric is what BENCH_explore.json records. Runs at
// the -explore-workers width (default one worker).
func BenchmarkExplorePOR(b *testing.B) {
	benchmarkSuite(b, false, *exploreWorkers)
}

// BenchmarkExploreFull is the unreduced baseline, at the -explore-workers
// width.
func BenchmarkExploreFull(b *testing.B) {
	benchmarkSuite(b, true, *exploreWorkers)
}

// parallelWidth is the width the *Parallel benchmark variants run at: the
// -explore-workers flag when raised above 1, else every core, else — on a
// single-core box, where these variants only measure coordination overhead —
// a two-worker pool.
func parallelWidth() int {
	if *exploreWorkers > 1 {
		return *exploreWorkers
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 2
}

// BenchmarkExplorePORParallel is BenchmarkExplorePOR at parallelWidth().
func BenchmarkExplorePORParallel(b *testing.B) {
	benchmarkSuite(b, false, parallelWidth())
}

// BenchmarkExploreFullParallel is BenchmarkExploreFull at parallelWidth().
func BenchmarkExploreFullParallel(b *testing.B) {
	benchmarkSuite(b, true, parallelWidth())
}

func benchmarkSuite(b *testing.B, fullExpl bool, workers int) {
	states, transitions := 0, 0
	for i := 0; i < b.N; i++ {
		states, transitions = runSuite(b, fullExpl, workers)
	}
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(float64(transitions), "transitions")
}

// BenchmarkExploreHuge is one huge exploration, the shape of a big
// /v1/check: wrc-transitive-sync's DRF0 enumeration (model.Enumerator under
// fuzz.DefaultExplorer) runs until it exhausts the 400k state budget, at one
// worker and at one worker per core. Its states/s ratio between the two
// widths is the evidence that Explorer.Workers earns its place: the litmus
// suite's explorations are too small to gain from more than one worker.
func BenchmarkExploreHuge(b *testing.B) {
	lt, ok := litmus.ByName("wrc-transitive-sync")
	if !ok {
		b.Fatal("wrc-transitive-sync missing from the litmus corpus")
	}
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			x := fuzz.DefaultExplorer()
			x.Workers = w
			states := 0
			for i := 0; i < b.N; i++ {
				enum := &model.Enumerator{Prog: lt.Prog, Explorer: x}
				err := enum.IdealizedExecutions(func(*mem.Execution) bool { return true })
				var sbe *explore.StateBudgetError
				if !errors.As(err, &sbe) {
					b.Fatalf("got %v, want the enumeration to exhaust its state budget", err)
				}
				states += sbe.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
		})
	}
}
