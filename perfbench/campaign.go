package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"weakorder/internal/campaign"
	"weakorder/internal/fuzz"
	"weakorder/internal/program"
)

// The campaign workload runs one campaign shard per core: nproc concurrent
// campaign.Runners of width 1 sharing one fresh Store, the way several
// campaigns share one wocampd. Each Runner visits its seeds one at a time
// (a block of one seed), so its Progress callback marks the completion of
// every verdict and gives each verdict's latency, which a single Runner
// fanning blocks out over the par pool does not expose; and no core waits
// at a block barrier behind a slow verdict.

// campaignShardStride separates the seed streams of the shards.
const campaignShardStride = 100_000

// campaignWarmupBase is the base seed of the set-up warm-up campaigns. It is
// fixed so every run's set-up does the same work, and lies far outside the
// seed ranges the timed campaigns draw from.
const campaignWarmupBase = 7_000_000_000

// campaignLegSeeds is the number of seeds per leg: a multiple of both of
// ProgramFor's cycles (six generator configs, a guarded program every
// seventh), so every leg draws the campaign's full program mix.
const campaignLegSeeds = 42

// campaignCachedRepeats is how many times each leg's campaign is re-run
// against the warmed Store: enough cached samples for a p99 with ten or more
// samples beyond it.
const campaignCachedRepeats = 10

// campaignGroup is the number of verdicts, across all shards, per opLog
// group.
const campaignGroup = 8

// campaignPinSeeds is how many leading verdicts of the first shard the
// default seed's digest covers.
const campaignPinSeeds = 16

// campaignBase maps the benchmark seed and a shard to the shard's first
// program seed; benchmark seeds a million apart never share a program.
func campaignBase(seed int64, shard int) int64 {
	return seed*1_000_000 + int64(shard)*campaignShardStride
}

// tally is one goroutine's share of a result, merged after it finishes.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) fail(op bool, format string, args ...any) {
	if op {
		t.failed++
	}
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func (r *result) merge(t *tally) {
	r.attempted += t.attempted
	for _, p := range t.problems {
		r.fail(false, "%s", p)
	}
	r.failed += t.failed
}

// campaignRun runs one Runner over seeds [base, base+n) at production
// settings — fuzz.DefaultExplorer budgets, the "weak" machines, the serial
// kernel — at width 1, stopping after budget when it is positive. It returns
// the report, the summary and each verdict's latency in ms.
func campaignRun(store *campaign.Store, base int64, n int, budget time.Duration, log *opLog) (*campaign.Report, *campaign.Summary, []float64, error) {
	var lat []float64
	last := time.Now()
	r := &campaign.Runner{
		Spec:            campaign.Spec{Seeds: n, BaseSeed: base, Machines: "weak"},
		Store:           store,
		Workers:         1,
		CheckpointEvery: 1,
		Budget:          budget,
		Progress: func(campaign.SeedReport, bool) {
			now := time.Now()
			lat = append(lat, ms(now.Sub(last)))
			last = now
			if log != nil {
				log.done(1)
			}
		},
	}
	rep, sum, err := r.Run(context.Background())
	if errors.Is(err, campaign.ErrInterrupted) && budget > 0 {
		err = nil
	}
	return rep, sum, lat, err
}

// programsJSON is the canonical byte form of a report's per-seed entries.
func programsJSON(progs []campaign.SeedReport) []byte {
	data, err := json.Marshal(progs)
	if err != nil {
		panic(err) // a SeedReport holds only marshalable fields
	}
	return data
}

// campaignSetup is one complete campaign set-up: a fresh Store, and every
// shard's warm-up campaign run once cold and once from the Store.
type campaignSetup struct {
	dir   string
	store *campaign.Store
}

func newCampaignSetup(e *env) (*campaignSetup, error) {
	dir, err := os.MkdirTemp(e.tmp, "campaign-")
	if err != nil {
		return nil, err
	}
	store, err := campaign.OpenStore(filepath.Join(dir, "cache.wocs"))
	if err != nil {
		return nil, err
	}
	s := &campaignSetup{dir: dir, store: store}
	errs := make([]error, e.workers)
	var wg sync.WaitGroup
	for k := 0; k < e.workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			base := campaignWarmupBase + int64(k)*campaignShardStride
			for pass := 0; pass < 2 && errs[k] == nil; pass++ {
				_, _, _, errs[k] = campaignRun(store, base, 2, 0, nil)
			}
		}(k)
	}
	wg.Wait()
	return s, errors.Join(errs...)
}

func (s *campaignSetup) close() {
	if s == nil {
		return
	}
	s.store.Close()
	os.RemoveAll(s.dir)
}

// campaignShard is one shard's timed campaign and its checks.
type campaignShard struct {
	tally
	cold, cached []float64
}

// run runs shard k's campaign in legs until the window that opened at start
// closes. Each leg is a fresh Runner over the shard's next campaignLegSeeds
// seeds, cut short by the window, after which the leg's campaign is re-run
// from the Store. The re-runs interleave with the other shards' exploration
// throughout the window, as cache hits do on a busy server.
func (sh *campaignShard) run(e *env, store *campaign.Store, k int, log *opLog, start time.Time) {
	for leg := 0; ; leg++ {
		left := e.window - time.Since(start)
		if left <= 0 {
			return
		}
		base := campaignBase(e.seed, k) + int64(leg*campaignLegSeeds)
		rep, _, lat, err := campaignRun(store, base, campaignLegSeeds, left, log)
		if err != nil {
			sh.fail(false, "shard %d campaign at base seed %d: %v", k, base, err)
			return
		}
		sh.cold = append(sh.cold, lat...)
		sh.attempted += len(rep.Programs)
		if k == 0 && leg == 0 && e.seed == defaultSeed && len(rep.Programs) >= campaignPinSeeds {
			d := sha256.Sum256(programsJSON(rep.Programs[:campaignPinSeeds]))
			if got := hex.EncodeToString(d[:]); got != pinnedCampaignReport {
				sh.fail(false, "campaign report digest for seed %d: got %s, pinned %s", e.seed, got, pinnedCampaignReport)
			}
		}
		sh.rerun(store, base, rep.Programs)
	}
}

// rerun re-runs the campaign over [base, base+len(want)) from the warmed
// Store campaignCachedRepeats times, checking that every re-run reports the
// same verdicts with every seed a hit and nothing explored.
func (sh *campaignShard) rerun(store *campaign.Store, base int64, want []campaign.SeedReport) {
	n := len(want)
	wantJSON := programsJSON(want)
	for i := 0; i < campaignCachedRepeats; i++ {
		again, sum, lat, err := campaignRun(store, base, n, 0, nil)
		sh.attempted += n
		switch {
		case err != nil:
			sh.fail(false, "cached re-run at base seed %d: %v", base, err)
			sh.failed += n
			continue
		case sum.CacheHits != int64(n) || sum.Explored != 0:
			sh.fail(false, "cached re-run at base seed %d: %d hits, %d states explored (want %d, 0)", base, sum.CacheHits, sum.Explored, n)
			sh.failed += n
			continue
		}
		sh.cached = append(sh.cached, lat...)
		if bytes.Equal(programsJSON(again.Programs), wantJSON) {
			continue
		}
		for j := range again.Programs {
			a, b := programsJSON(want[j:j+1]), programsJSON(again.Programs[j:j+1])
			if !bytes.Equal(a, b) {
				sh.fail(true, "seed %d: cached verdict %s differs from computed %s", want[j].Seed, b, a)
			}
		}
	}
}

// eachShard runs fn for every shard on its own goroutine and waits.
func eachShard[S any](shards []S, fn func(k int, sh *S)) {
	var wg sync.WaitGroup
	for k := range shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k, &shards[k])
		}(k)
	}
	wg.Wait()
}

// runCampaign is the timed campaign workload.
func runCampaign(e *env, r *result) {
	s, setup, err := setupMedian(func() (*campaignSetup, error) { return newCampaignSetup(e) }, (*campaignSetup).close)
	defer s.close()
	if err != nil {
		r.fail(false, "campaign set-up: %v", err)
		return
	}
	shards := make([]campaignShard, e.workers)
	log := newOpLog(campaignGroup)
	start := time.Now()
	eachShard(shards, func(k int, sh *campaignShard) { sh.run(e, s.store, k, log, start) })

	var cold, cached []float64
	for k := range shards {
		r.merge(&shards[k].tally)
		cold = append(cold, shards[k].cold...)
		cached = append(cached, shards[k].cached...)
	}
	if len(log.rates) == 0 {
		r.fail(false, "campaign: fewer than %d verdicts in the window", campaignGroup)
		return
	}
	commonMetrics(r, setup, log)
	latencyMetrics(r, cold, cached)
}

// traceCampaign is the traced campaign run, with the same shards. In its
// untraced half each shard checks its programs with fuzz.Checker; in its
// traced half each shard recomputes the same verdicts stage by stage
// (tracedVerdict), storing them, then answers each again from the Store.
// The stage-by-stage verdicts must equal the checker's.
func traceCampaign(e *env, r *result) {
	s, err := newCampaignSetup(e)
	defer s.close()
	if err != nil {
		r.fail(false, "campaign set-up: %v", err)
		return
	}
	fs := weakFactories()
	xt := *fuzz.DefaultExplorer()
	opts := verdictOptions(fs, xt)

	type shard struct {
		tally
		progs   []*program.Program
		refs    []*fuzz.Report
		refErrs []error
		lt      *layerTotals
		stored  []campaign.Verdict
		states  int64
	}
	shards := make([]shard, e.workers)
	a0 := readRuntime()
	eachShard(shards, func(k int, sh *shard) {
		for i := 0; time.Since(a0.wall) < e.window/2; i++ {
			_, p := campaign.ProgramFor(campaignBase(e.seed, k), i)
			x := xt
			rep, err := (&fuzz.Checker{Explorer: &x, Machines: fs}).Check(p)
			sh.progs = append(sh.progs, p)
			sh.refs = append(sh.refs, rep)
			sh.refErrs = append(sh.refErrs, err)
			if rep != nil {
				sh.states += rep.States
			}
		}
	})
	a := a0.to(readRuntime())

	b0 := time.Now()
	eachShard(shards, func(k int, sh *shard) {
		sh.lt = newLayerTotals(fs)
		sh.stored = make([]campaign.Verdict, len(sh.progs))
		for i, p := range sh.progs {
			sh.attempted++
			got, sp, err := tracedVerdict(s.store, p, fs, xt, opts)
			sh.stored[i] = got.verdict
			if err != nil {
				sh.fail(true, "traced verdict of %s: %v", p.Name, err)
				continue
			}
			if d := compareChecker(got, sp.cached, sh.refs[i], sh.refErrs[i]); d != "" {
				sh.fail(true, "%s: stage-by-stage verdict differs from fuzz.Checker: %s", p.Name, d)
				continue
			}
			if d := checkSpans(sp); d != "" {
				sh.fail(true, "%s: %s", p.Name, d)
			}
			sh.lt.add(sp)
		}
	})
	bWall := time.Since(b0)
	eachShard(shards, func(k int, sh *shard) {
		for i, p := range sh.progs {
			sh.attempted++
			got, sp, err := tracedVerdict(s.store, p, fs, xt, opts)
			if err != nil || !sp.cached {
				sh.fail(true, "cached traced verdict of %s: cached=%v err=%v", p.Name, sp.cached, err)
				continue
			}
			if d := compareVerdicts(got.verdict, sh.stored[i], true); d != "" {
				sh.fail(true, "%s: cached verdict differs from the stored one: %s", p.Name, d)
				continue
			}
			if d := checkSpans(sp); d != "" {
				sh.fail(true, "%s: %s", p.Name, d)
			}
			sh.lt.add(sp)
		}
	})

	lt := newLayerTotals(fs)
	var states int64
	ops := 0
	for k := range shards {
		sh := &shards[k]
		r.merge(&sh.tally)
		lt.merge(sh.lt)
		states += sh.states
		ops += len(sh.progs)
	}
	zeroLayers(r)
	setVerdictLayers(r, lt)
	setRuntimeLayers(r, a, ops, states)
	r.set("trace.overhead_pct", 100*(bWall.Seconds()-a.wall.Seconds())/a.wall.Seconds(), "%")
	r.set("trace.unaccounted_frac", unaccounted(lt.total, lt.accounted), "frac")
}
