package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"weakorder/internal/campaign"
	"weakorder/internal/core"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// weakFactories is the machine set every verdict in the benchmark checks:
// the "weak" selection the campaign CLI and the server default to.
func weakFactories() []litmus.Factory {
	fs, err := litmus.FactoriesByNames("weak")
	if err != nil {
		panic(err) // the alias is built in
	}
	return fs
}

// verdictOptions is the cache-key option set FuzzVerdict is called with for
// explorer xt and machines fs, resolved the way the Runner and the server
// resolve it.
func verdictOptions(fs []litmus.Factory, xt model.Explorer) campaign.Options {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return campaign.Options{Machines: names, MaxStates: xt.MaxStates, MaxTraceOps: xt.MaxTraceOps}
}

// stageSpans are the timed calls of one verdict, taken from outside around
// each layer's public function.
type stageSpans struct {
	key, get, decode, drf0, sc, put time.Duration
	machines                        []time.Duration // per factory, in order
	total                           time.Duration   // the whole verdict, end to end
	states                          int64           // SC + machine explorations
	executions                      int             // idealized executions (DRF0 stage)
	cached, skipped                 bool
}

// accounted is the sum of the stage spans.
func (s *stageSpans) accounted() time.Duration {
	d := s.key + s.get + s.decode + s.drf0 + s.sc + s.put
	for _, m := range s.machines {
		d += m
	}
	return d
}

// stagedResult is the stage-by-stage verdict: the same fields fuzz.Checker
// reports, so the two can be compared.
type stagedResult struct {
	verdict  campaign.Verdict
	outcomes []int // per machine outcome-set size
	extra    []int // per machine non-SC outcome count
}

// tracedVerdict computes p's verdict the way campaign.FuzzVerdict does —
// key, Store lookup, then DRF0 classification, the SC reference and each
// machine, then the Store append — calling each layer directly and timing
// each call. A Store hit decodes the cached verdict instead.
func tracedVerdict(store *campaign.Store, p *program.Program, fs []litmus.Factory, xt model.Explorer, opts campaign.Options) (stagedResult, stageSpans, error) {
	sp := stageSpans{machines: make([]time.Duration, len(fs))}
	var out stagedResult
	start := time.Now()
	t0 := start
	key := campaign.Key(p, opts)
	sp.key = time.Since(t0)
	t0 = time.Now()
	data, ok := store.Get(key)
	sp.get = time.Since(t0)
	if ok {
		t0 = time.Now()
		err := json.Unmarshal(data, &out.verdict)
		sp.decode = time.Since(t0)
		sp.total = time.Since(start)
		sp.cached = true
		sp.skipped = out.verdict.Skipped
		return out, sp, err
	}

	x := xt
	v := &out.verdict
	err := func() error {
		t0 := time.Now()
		drf, err := core.CheckProgram(&model.Enumerator{Prog: p, Explorer: &x}, core.DRF0{}, 1)
		sp.drf0 = time.Since(t0)
		if err != nil {
			return err
		}
		sp.executions = drf.Executions
		v.DRF0 = drf.Obeys()
		t0 = time.Now()
		scOut, scStats, err := x.Outcomes(model.NewSC(p))
		sp.sc = time.Since(t0)
		if err != nil {
			return err
		}
		v.SCOutcomes = len(scOut)
		v.States = int64(scStats.States)
		for i, f := range fs {
			t0 = time.Now()
			hwOut, st, err := x.Outcomes(f.New(p))
			sp.machines[i] = time.Since(t0)
			if err != nil {
				return err
			}
			v.States += int64(st.States)
			crep := core.CheckContract(p.Name, f.Name, v.DRF0, scOut, hwOut)
			out.outcomes = append(out.outcomes, len(hwOut))
			out.extra = append(out.extra, len(crep.Extra))
			if len(crep.Extra) > 0 {
				if v.DRF0 {
					v.Violating = append(v.Violating, f.Name)
				} else {
					v.RacyNonSC = true
				}
			}
		}
		return nil
	}()
	switch {
	case err != nil && errors.Is(err, model.ErrStateBudget):
		out = stagedResult{verdict: campaign.Verdict{Skipped: true}}
		sp.skipped = true
	case err != nil:
		return out, sp, err
	}
	sp.states = out.verdict.States
	t0 = time.Now()
	enc, err := json.Marshal(&out.verdict)
	if err == nil {
		err = store.Put(key, enc)
	}
	sp.put = time.Since(t0)
	sp.total = time.Since(start)
	return out, sp, err
}

// compareChecker reports how a stage-by-stage verdict differs from
// fuzz.Checker.Check's report (ref, or refErr) on the same program, or ""
// when they agree. A verdict answered from the Store (an earlier program had
// the same cache key) carries no per-machine counts, so only its verdict
// fields are compared.
func compareChecker(got stagedResult, cached bool, ref *fuzz.Report, refErr error) string {
	if refErr != nil {
		if errors.Is(refErr, model.ErrStateBudget) && got.verdict.Skipped {
			return ""
		}
		return fmt.Sprintf("checker failed (%v) but staged verdict is %+v", refErr, got.verdict)
	}
	v := got.verdict
	switch {
	case v.Skipped:
		return "staged verdict skipped, checker completed"
	case v.DRF0 != ref.DRF0:
		return fmt.Sprintf("DRF0 %v, checker %v", v.DRF0, ref.DRF0)
	case v.SCOutcomes != ref.SCOutcomes:
		return fmt.Sprintf("SC outcomes %d, checker %d", v.SCOutcomes, ref.SCOutcomes)
	case v.States != ref.States:
		return fmt.Sprintf("states %d, checker %d", v.States, ref.States)
	case v.RacyNonSC != ref.RacyNonSC():
		return fmt.Sprintf("racy-non-SC %v, checker %v", v.RacyNonSC, ref.RacyNonSC())
	case strings.Join(v.Violating, ",") != strings.Join(ref.Violating(), ","):
		return fmt.Sprintf("violating %v, checker %v", v.Violating, ref.Violating())
	case cached:
		return ""
	case len(got.outcomes) != len(ref.Machines):
		return fmt.Sprintf("%d machines, checker %d", len(got.outcomes), len(ref.Machines))
	}
	for i, m := range ref.Machines {
		if got.outcomes[i] != m.Outcomes || got.extra[i] != len(m.Extra) {
			return fmt.Sprintf("%s: %d outcomes (%d non-SC), checker %d (%d)",
				m.Machine, got.outcomes[i], got.extra[i], m.Outcomes, len(m.Extra))
		}
	}
	return ""
}

// layerTotals accumulates stage spans over many verdicts.
type layerTotals struct {
	fs                              []litmus.Factory
	n, cold, cached, skipped        int
	key, get, decode, drf0, sc, put time.Duration
	machines                        []time.Duration
	total, accounted                time.Duration
	states                          int64
	executions                      int64
}

func newLayerTotals(fs []litmus.Factory) *layerTotals {
	return &layerTotals{fs: fs, machines: make([]time.Duration, len(fs))}
}

func (l *layerTotals) add(s stageSpans) {
	l.n++
	l.key += s.key
	l.get += s.get
	l.total += s.total
	l.accounted += s.accounted()
	if s.cached {
		l.cached++
		l.decode += s.decode
		return
	}
	l.cold++
	if s.skipped {
		l.skipped++
	}
	l.drf0 += s.drf0
	l.sc += s.sc
	l.put += s.put
	for i, m := range s.machines {
		l.machines[i] += m
	}
	l.states += s.states
	l.executions += int64(s.executions)
}

func (l *layerTotals) merge(o *layerTotals) {
	l.n += o.n
	l.cold += o.cold
	l.cached += o.cached
	l.skipped += o.skipped
	l.key += o.key
	l.get += o.get
	l.decode += o.decode
	l.drf0 += o.drf0
	l.sc += o.sc
	l.put += o.put
	for i, m := range o.machines {
		l.machines[i] += m
	}
	l.total += o.total
	l.accounted += o.accounted
	l.states += o.states
	l.executions += o.executions
}

// per returns d divided by n in the given unit, or 0 when n is 0 (the
// workload never ran that layer).
func per(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// machineMetric names a machine's per-layer model metric, with the name
// sanitised to the metric alphabet.
func machineMetric(name string) string {
	return "model." + strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return '-'
	}, name) + "_ms"
}

// setVerdictLayers reports the explore/core/model/campaign per-layer metrics
// from accumulated stage spans. Cold verdicts are the ops of the exploring
// layers; every verdict, cold or cached, is an op of the campaign layer.
func setVerdictLayers(r *result, l *layerTotals) {
	cold := l.cold - l.skipped // verdicts whose explorations all completed
	var explore time.Duration = l.sc
	for _, m := range l.machines {
		explore += m
	}
	r.set("explore.states", float64(l.states)/math.Max(1, float64(cold)), "count")
	statesPerS := 0.0
	if explore > 0 {
		statesPerS = float64(l.states) / explore.Seconds()
	}
	r.set("explore.states_per_s", statesPerS, "1/s")
	r.set("core.drf0_ms", per(l.drf0, l.cold, time.Millisecond), "ms/call")
	r.set("core.executions", float64(l.executions)/math.Max(1, float64(cold)), "count")
	r.set("model.sc_ms", per(l.sc, l.cold, time.Millisecond), "ms/call")
	for i, f := range l.fs {
		r.set(machineMetric(f.Name), per(l.machines[i], l.cold, time.Millisecond), "ms/call")
	}
	r.set("campaign.key_us", per(l.key, l.n, time.Microsecond), "us/call")
	r.set("campaign.store_get_us", per(l.get, l.n, time.Microsecond), "us/call")
	r.set("campaign.store_put_us", per(l.put, l.cold, time.Microsecond), "us/call")
	r.set("campaign.verdict_decode_us", per(l.decode, l.cached, time.Microsecond), "us/call")
	skippedFrac := 0.0
	if l.cold > 0 {
		skippedFrac = float64(l.skipped) / float64(l.cold)
	}
	r.set("campaign.skipped_frac", skippedFrac, "frac")
}
