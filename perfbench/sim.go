package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"weakorder/internal/machine"
	"weakorder/internal/proc"
	"weakorder/internal/program"
	"weakorder/internal/workload/openloop"
	"weakorder/internal/workload/spec"
	"weakorder/internal/workload/tracefmt"
)

// simSpec is the fixed open-loop workload: eight processors under WO-Def2
// through a racy mix phase, a contended lock phase below its E14 knee
// (rate 4) and a producer/consumer phase above its knee (rate 16).
func simSpec() *spec.Spec {
	return &spec.Spec{
		SpecVersion: spec.Version,
		Name:        "perfbench-sim",
		Procs:       8,
		Seed:        1,
		Phases: []spec.Phase{
			{Duration: 4000, Rate: 100, Scenario: spec.ScenarioMix},
			{Duration: 10000, Rate: 2, Scenario: spec.ScenarioLock, Work: 10},
			{Duration: 2000, Rate: 32, Scenario: spec.ScenarioProdCons, Work: 10},
		},
	}
}

// simWarmupSeed seeds the set-up warm-up pass; the timed passes draw their
// generator seeds from simPassSeed, which never yields it.
const simWarmupSeed = -1

// simPassSeed is the generator seed of timed pass i.
func simPassSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) + 1 }

// timedSource times the calls into a record source.
type timedSource struct {
	src openloop.Source
	d   time.Duration
}

func (t *timedSource) Next(p int) (tracefmt.Record, bool, error) {
	t0 := time.Now()
	r, ok, err := t.src.Next(p)
	t.d += time.Since(t0)
	return r, ok, err
}

// timedWorkload times the machine's pulls from its fragment source.
type timedWorkload struct {
	w proc.Workload
	d time.Duration
}

func (t *timedWorkload) Next(p int) (proc.Job, bool, error) {
	t0 := time.Now()
	j, ok, err := t.w.Next(p)
	t.d += time.Since(t0)
	return j, ok, err
}

// simPass is one machine run over an arrival stream, recorded as it is
// pulled.
type simPass struct {
	trace   []byte // the stream as recorded during the run
	res     *machine.Result
	records int
	// Traced passes only: time inside the innermost source (generation or
	// decode), inside the recorder beyond it (encode), inside the compiler
	// beyond that (compile), and the whole machine.Run.
	inner, encode, compile, run time.Duration
	// wall is the whole pass: building the program, source and writer, the
	// run, and closing the trace.
	wall time.Duration
}

// runPass runs the machine over src (a generator or a trace replayer),
// re-recording the stream into a fresh trace with header hdr. With traced
// set, each layer boundary is timed from outside.
func runPass(prog *program.Program, hdr tracefmt.Header, src openloop.Source, traced bool) (*simPass, error) {
	var buf bytes.Buffer
	w, err := tracefmt.NewWriter(&buf, hdr)
	if err != nil {
		return nil, err
	}
	cfg := machine.NewConfig(proc.PolicyWODef2)
	var inner, outer *timedSource
	var tw *timedWorkload
	if traced {
		inner = &timedSource{src: src}
		outer = &timedSource{src: openloop.NewRecorder(inner, w)}
		tw = &timedWorkload{w: openloop.Compile(outer)}
		cfg.Workload = tw
	} else {
		cfg.Workload = openloop.Compile(openloop.NewRecorder(src, w))
	}
	t0 := time.Now()
	res, err := machine.Run(prog, cfg)
	run := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	p := &simPass{trace: buf.Bytes(), res: res, records: int(w.Count()), run: run}
	if traced {
		p.inner, p.encode, p.compile = inner.d, outer.d-inner.d, tw.d-outer.d
	}
	return p, nil
}

// recordPass generates the spec's arrival stream with the given seed and
// runs it, recording the trace.
func recordPass(s *spec.Spec, genSeed int64, traced bool) (*simPass, error) {
	t0 := time.Now()
	prog, err := openloop.Program(s)
	if err != nil {
		return nil, err
	}
	gen, err := openloop.NewGenerator(s, genSeed)
	if err != nil {
		return nil, err
	}
	p, err := runPass(prog, openloop.Header(s), gen, traced)
	if err == nil {
		p.wall = time.Since(t0)
	}
	return p, err
}

// replayPass runs a recorded trace with no spec in hand, re-recording it.
func replayPass(trace []byte, traced bool) (*simPass, error) {
	t0 := time.Now()
	rd, err := tracefmt.NewReader(bytes.NewReader(trace))
	if err != nil {
		return nil, err
	}
	prog, err := openloop.ReplayProgram(rd.Header())
	if err != nil {
		return nil, err
	}
	p, err := runPass(prog, rd.Header(), openloop.NewReplayer(rd), traced)
	if err == nil {
		p.wall = time.Since(t0)
	}
	return p, err
}

// sameRun reports how a replay differs from the run it replays, or "".
func sameRun(rec, rep *simPass) string {
	switch {
	case !bytes.Equal(rec.trace, rep.trace):
		return fmt.Sprintf("re-recorded trace differs (%d vs %d bytes)", len(rep.trace), len(rec.trace))
	case rec.res.Cycles != rep.res.Cycles:
		return fmt.Sprintf("cycles %d vs %d", rep.res.Cycles, rec.res.Cycles)
	case rec.res.Messages != rep.res.Messages:
		return fmt.Sprintf("messages %d vs %d", rep.res.Messages, rec.res.Messages)
	}
	return ""
}

// simPair runs record pass i and its replay, checking the replay. It
// returns nil passes after recording a failure.
func simPair(e *env, r *result, s *spec.Spec, i int, traced bool) (rec, rep *simPass) {
	genSeed := simPassSeed(e.seed, i)
	rec, err := recordPass(s, genSeed, traced)
	r.attempted++
	if err != nil {
		r.fail(true, "record pass %d: %v", i, err)
		return nil, nil
	}
	if i == 0 && e.seed == defaultSeed && !traced {
		sum := sha256.Sum256(rec.trace)
		if got := hex.EncodeToString(sum[:]); got != pinnedSimTrace {
			r.fail(false, "sim trace digest for seed %d: got %s, pinned %s", e.seed, got, pinnedSimTrace)
		}
	}
	rep, err = replayPass(rec.trace, traced)
	r.attempted++
	if err != nil {
		r.fail(true, "replay pass %d: %v", i, err)
		return nil, nil
	}
	if d := sameRun(rec, rep); d != "" {
		r.fail(true, "replay of pass %d: %s", i, d)
		return nil, nil
	}
	return rec, rep
}

// runSim is the timed sim workload: record and replay passes alternate,
// each replay checked against its recording.
func runSim(e *env, r *result) {
	s := simSpec()
	_, setup, err := setupMedian(func() (struct{}, error) {
		if err := s.Validate(); err != nil {
			return struct{}{}, err
		}
		rec, err := recordPass(s, simWarmupSeed, false)
		if err != nil {
			return struct{}{}, err
		}
		_, err = replayPass(rec.trace, false)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		r.fail(false, "sim set-up: %v", err)
		return
	}

	var cold, cached []float64
	log := newOpLog(1)
	for start, i := time.Now(), 0; i == 0 || time.Since(start) < e.window; i++ {
		rec, rep := simPair(e, r, s, i, false)
		if rec == nil {
			continue
		}
		cold = append(cold, ms(rec.wall))
		cached = append(cached, ms(rep.wall))
		log.done(rec.records + rep.records)
	}
	if len(log.rates) == 0 {
		return
	}
	commonMetrics(r, setup, log)
	latencyMetrics(r, cold, cached)
}

// traceSim is the traced sim run: untraced record/replay pairs for half the
// window, then the same pairs again with every layer boundary timed.
func traceSim(e *env, r *result) {
	s := simSpec()
	if err := s.Validate(); err != nil {
		r.fail(false, "sim spec: %v", err)
		return
	}
	if _, err := recordPass(s, simWarmupSeed, false); err != nil {
		r.fail(false, "sim warm-up: %v", err)
		return
	}
	n, records := 0, 0
	a0 := readRuntime()
	for n == 0 || time.Since(a0.wall) < e.window/2 {
		if rec, rep := simPair(e, r, s, n, false); rec != nil {
			records += rec.records + rep.records
		}
		n++
	}
	a := a0.to(readRuntime())

	zeroLayers(r)
	var (
		gen, dec, enc, comp, host, runs    time.Duration
		recRecords, repRecords, traceBytes int
		messages                           uint64
	)
	b0 := time.Now()
	for i := 0; i < n; i++ {
		rec, rep := simPair(e, r, s, i, true)
		if rec == nil {
			continue
		}
		if i == 0 {
			// Simulated counts of the first pair: deterministic for a seed,
			// so any host-speed change must leave them exactly as they are.
			r.set("machine.sim_cycles", float64(rec.res.Cycles), "count")
			r.set("machine.messages_per_op", float64(rec.res.Messages)/float64(rec.records), "count")
			var hits, misses int64
			for _, c := range rec.res.CacheStats {
				hits += c.Get("hits")
				misses += c.Get("read_misses") + c.Get("write_misses")
			}
			r.set("machine.cache_hits", float64(hits), "count")
			r.set("machine.cache_misses", float64(misses), "count")
		}
		gen += rec.inner
		dec += rep.inner
		for _, p := range []*simPass{rec, rep} {
			if p.inner+p.encode+p.compile > p.run+spanSlack {
				r.fail(true, "pass %d: source spans %v exceed machine.Run's %v", i, p.inner+p.encode+p.compile, p.run)
			}
			runs += p.run
			enc += p.encode
			comp += p.compile
			host += p.run - p.inner - p.encode - p.compile
			messages += p.res.Messages
		}
		recRecords += rec.records
		repRecords += rep.records
		traceBytes += len(rec.trace)
	}
	bWall := time.Since(b0)
	all := recRecords + repRecords

	r.set("openloop.gen_ns_per_op", per(gen, recRecords, time.Nanosecond), "ns/op")
	r.set("openloop.compile_ns_per_op", per(comp, all, time.Nanosecond), "ns/op")
	r.set("tracefmt.encode_ns_per_op", per(enc, all, time.Nanosecond), "ns/op")
	r.set("tracefmt.decode_ns_per_op", per(dec, repRecords, time.Nanosecond), "ns/op")
	r.set("tracefmt.bytes_per_op", float64(traceBytes)/float64(max(recRecords, 1)), "B")
	r.set("machine.host_ns_per_op", per(host, all, time.Nanosecond), "ns/op")
	r.set("machine.host_ns_per_message", per(host, int(messages), time.Nanosecond), "ns/op")
	setRuntimeLayers(r, a, records, 0)
	r.set("trace.overhead_pct", 100*(bWall.Seconds()-a.wall.Seconds())/a.wall.Seconds(), "%")
	// The spans cover machine.Run (its sources and the engine between
	// pulls); the rest of a pair is building the program, generator or
	// reader and writer, and comparing the replay with its recording.
	r.set("trace.unaccounted_frac", unaccounted(bWall, runs), "frac")
}
