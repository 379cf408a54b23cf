package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"weakorder/internal/campaign"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

const (
	// checkGenerated is how many distinct generated programs the cold
	// stream can draw on; a run at today's speed sends a few hundred.
	checkGenerated = 1200
	// checkFirstBlock is the size of the opening cold block: the whole
	// litmus corpus shuffled among generated programs, so every run sends
	// the corpus (its wrc-transitive-sync exhausts the state budget and is
	// answered "skipped") early.
	checkFirstBlock = 64
	// checkCachedPerCold is the number of re-sends of already-seen programs
	// after each cold request: enough cached samples for a p99 with ten or
	// more samples beyond it. It is fixed, not drawn, so every run sends the
	// same mix of cold and cached requests.
	checkCachedPerCold = 8
	// checkGroup is the number of requests per opLog group: four cold
	// requests and their re-sends, so every group holds the same mix.
	checkGroup = 4 * (1 + checkCachedPerCold)
	// checkWarmupBase seeds the set-up warm-up programs, far from the seed
	// ranges the timed stream draws from.
	checkWarmupBase = 9_000_000_000
)

// checkBase maps the benchmark seed to the first generated program seed.
func checkBase(seed int64) int64 { return seed*1_000_000 + 500_000 }

// checkInput is one distinct program, as the client sends it.
type checkInput struct {
	name string
	text string
	body []byte // the marshalled request
	key  string // hex cache key, as the server reports it
}

func newCheckInput(name, text string, opts campaign.Options) (checkInput, error) {
	res, err := program.Parse(text)
	if err != nil {
		return checkInput{}, fmt.Errorf("%s: emitted litmus does not parse: %w", name, err)
	}
	body, err := json.Marshal(campaign.CheckRequest{Litmus: text})
	if err != nil {
		return checkInput{}, err
	}
	k := campaign.Key(res.Program, opts)
	return checkInput{name: name, text: text, body: body, key: hex.EncodeToString(k[:])}, nil
}

// checkInputs builds the cold stream's programs in sending order: the
// corpus shuffled into the first block, then generated programs. Programs
// with the same cache key as an earlier one are dropped, so every cold
// request is a genuine miss.
func checkInputs(seed int64, opts campaign.Options) ([]checkInput, error) {
	seen := make(map[string]bool)
	var corpus, gen []checkInput
	add := func(dst *[]checkInput, name, text string) error {
		in, err := newCheckInput(name, text, opts)
		if err != nil {
			return err
		}
		if !seen[in.key] {
			seen[in.key] = true
			*dst = append(*dst, in)
		}
		return nil
	}
	for _, t := range litmus.Corpus() {
		if err := add(&corpus, t.Name, fuzz.EmitLitmus(t.Prog)); err != nil {
			return nil, err
		}
	}
	for i := 0; len(gen) < checkGenerated; i++ {
		_, p := campaign.ProgramFor(checkBase(seed), i)
		if err := add(&gen, p.Name, fuzz.EmitLitmus(p)); err != nil {
			return nil, err
		}
	}
	first := append(corpus, gen[:checkFirstBlock-len(corpus)]...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(first), func(i, j int) { first[i], first[j] = first[j], first[i] })
	return append(first, gen[checkFirstBlock-len(corpus):]...), nil
}

// checkOp is one scheduled request: input index and whether it is a re-send.
type checkOp struct {
	in     int
	cached bool
}

// checkSchedule yields the request stream: each input once cold, in order,
// each followed by checkCachedPerCold re-sends of inputs already sent, drawn
// by a seeded generator.
type checkSchedule struct {
	rng  *rand.Rand
	cold int // inputs sent cold so far
	left int // re-sends still due before the next cold request
}

func newCheckSchedule(seed int64) *checkSchedule {
	return &checkSchedule{rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
}

func (s *checkSchedule) next() checkOp {
	if s.left > 0 {
		s.left--
		return checkOp{in: s.rng.Intn(s.cold), cached: true}
	}
	s.cold++
	s.left = checkCachedPerCold
	return checkOp{in: s.cold - 1}
}

// checkServer is one complete /v1/check service: a fresh Store, the
// campaign server over it, and an in-process HTTP server in front.
type checkServer struct {
	dir    string
	store  *campaign.Store
	srv    *campaign.Server
	ts     *httptest.Server
	client *http.Client
}

func newCheckServer(e *env) (*checkServer, error) {
	dir, err := os.MkdirTemp(e.tmp, "check-")
	if err != nil {
		return nil, err
	}
	store, err := campaign.OpenStore(filepath.Join(dir, "cache.wocs"))
	if err != nil {
		return nil, err
	}
	srv := campaign.NewServer(store, filepath.Join(dir, "campaigns"))
	ts := httptest.NewServer(srv.Handler())
	return &checkServer{dir: dir, store: store, srv: srv, ts: ts, client: ts.Client()}, nil
}

func (c *checkServer) close() {
	if c == nil {
		return
	}
	c.ts.Close()
	c.srv.Shutdown()
	c.store.Close()
	os.RemoveAll(c.dir)
}

// post sends one check request and returns the decoded response and its
// latency, from sending the request to having read the whole body.
func (c *checkServer) post(body []byte) (campaign.CheckResponse, time.Duration, error) {
	var cr campaign.CheckResponse
	t0 := time.Now()
	resp, err := c.client.Post(c.ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return cr, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return cr, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return cr, d, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return cr, d, json.Unmarshal(data, &cr)
}

// checkSetup is one complete set-up: inputs, server, and a warm-up of cold
// requests and re-sends on programs outside the timed stream.
type checkSetup struct {
	inputs []checkInput
	srv    *checkServer
}

func newCheckSetup(e *env, opts campaign.Options) (*checkSetup, error) {
	inputs, err := checkInputs(e.seed, opts)
	if err != nil {
		return nil, err
	}
	srv, err := newCheckServer(e)
	if err != nil {
		return nil, err
	}
	s := &checkSetup{inputs: inputs, srv: srv}
	for i := 0; i < 2; i++ {
		_, p := campaign.ProgramFor(checkWarmupBase, i)
		in, err := newCheckInput(p.Name, fuzz.EmitLitmus(p), opts)
		if err != nil {
			return s, err
		}
		for j := 0; j < 3; j++ {
			if _, _, err := srv.post(in.body); err != nil {
				return s, fmt.Errorf("warm-up request: %w", err)
			}
		}
	}
	return s, nil
}

func (s *checkSetup) close() {
	if s != nil {
		s.srv.close()
	}
}

// checkExplorer is the explorer the server runs each request with.
func checkExplorer() model.Explorer {
	xt := *fuzz.DefaultExplorer()
	xt.Workers = -1
	return xt
}

// responseVerdict extracts the verdict fields of a response.
func responseVerdict(cr campaign.CheckResponse) campaign.Verdict {
	return campaign.Verdict{DRF0: cr.DRF0, Skipped: cr.Skipped, SCOutcomes: cr.SCOutcomes,
		RacyNonSC: cr.RacyNonSC, Violating: cr.Violating, Reproducers: cr.Reproducers, States: cr.States}
}

// checkStream is the client side of the request stream. It checks each
// response against what the client already knows: a cold response must
// report a miss that explored; a re-send must be a hit that explored nothing
// and carries the same verdict as the program's cold response.
type checkStream struct {
	sched  *checkSchedule
	first  map[int]campaign.CheckResponse // cold response per input
	coldIn []int                          // inputs sent cold, in order
	cold   []float64                      // latencies, ms
	cached []float64
	states int64 // explored by cold requests
}

func newCheckStream(seed int64) *checkStream {
	return &checkStream{sched: newCheckSchedule(seed), first: make(map[int]campaign.CheckResponse)}
}

// send sends one request, records its latency by class, and reports each
// completion to log when it is non-nil.
func (c *checkStream) send(r *result, srv *checkServer, in checkInput, op checkOp, log *opLog) {
	r.attempted++
	cr, d, err := srv.post(in.body)
	if log != nil {
		log.done(1)
	}
	switch {
	case err != nil:
		r.fail(true, "%s: %v", in.name, err)
		return
	case cr.Key != in.key:
		r.fail(true, "%s: key %s, want %s", in.name, cr.Key, in.key)
		return
	case !op.cached:
		c.coldIn = append(c.coldIn, op.in)
		c.first[op.in] = cr
		if cr.Cached || cr.ExploredNow != cr.States {
			r.fail(true, "%s: cold request answered cached=%v explored_now=%d states=%d", in.name, cr.Cached, cr.ExploredNow, cr.States)
			return
		}
		c.cold = append(c.cold, ms(d))
		c.states += cr.States
		return
	case !cr.Cached || cr.ExploredNow != 0:
		r.fail(true, "%s: re-send answered cached=%v explored_now=%d", in.name, cr.Cached, cr.ExploredNow)
		return
	}
	want := c.first[op.in]
	if diff := compareVerdicts(responseVerdict(cr), responseVerdict(want), true); diff != "" || cr.Name != want.Name {
		r.fail(true, "%s: cached response differs from the cold one (%q vs %q): %s", in.name, cr.Name, want.Name, diff)
		return
	}
	c.cached = append(c.cached, ms(d))
}

// verifyDirect recomputes the verdict of every input sent cold with a
// direct campaign.FuzzVerdict (no Store, serial kernel, programs spread
// across the par pool) and checks the server's cold response against it.
func verifyDirect(r *result, s *checkSetup, c *checkStream) {
	fs := weakFactories()
	xt := *fuzz.DefaultExplorer()
	opts := verdictOptions(fs, xt)
	type direct struct {
		v   campaign.Verdict
		err error
	}
	out, _ := par.Map(c.coldIn, 0, func(_ int, in int) (direct, error) {
		res, err := program.Parse(s.inputs[in].text)
		if err != nil {
			return direct{err: err}, nil
		}
		v, _, err := campaign.FuzzVerdict(nil, res.Program, fs, xt, opts, false)
		return direct{v, err}, nil
	})
	for i, in := range c.coldIn {
		name := s.inputs[in].name
		if out[i].err != nil {
			r.fail(true, "%s: direct FuzzVerdict: %v", name, out[i].err)
			continue
		}
		if d := compareVerdicts(responseVerdict(c.first[in]), out[i].v, false); d != "" {
			r.fail(true, "%s: /v1/check response differs from a direct FuzzVerdict: %s", name, d)
		}
	}
}

// runCheck is the timed check workload.
func runCheck(e *env, r *result) {
	opts := verdictOptions(weakFactories(), checkExplorer())
	s, setup, err := setupMedian(func() (*checkSetup, error) { return newCheckSetup(e, opts) }, (*checkSetup).close)
	defer s.close()
	if err != nil {
		r.fail(false, "check set-up: %v", err)
		return
	}
	c := newCheckStream(e.seed)
	log := newOpLog(checkGroup)
	for start := time.Now(); time.Since(start) < e.window && c.sched.cold < len(s.inputs); {
		op := c.sched.next()
		c.send(r, s.srv, s.inputs[op.in], op, log)
	}
	verifyDirect(r, s, c)
	if len(log.rates) == 0 {
		r.fail(false, "check: fewer than %d requests in the window", checkGroup)
		return
	}
	commonMetrics(r, setup, log)
	latencyMetrics(r, c.cold, c.cached)
}

// traceCheck is the traced check run. Its untraced half sends the request
// stream over HTTP for half the window. Its traced half takes the same
// requests against a second, fresh server: each cold request is computed
// stage by stage from outside (parse, then tracedVerdict with the server's
// explorer, storing into that server's Store), and each re-send goes over
// HTTP, after which its cached path — parse, key, Store lookup, decode — is
// timed by direct calls. The HTTP layer's cost is the re-send latency the
// direct calls leave unexplained.
func traceCheck(e *env, r *result) {
	fs := weakFactories()
	xt := checkExplorer()
	opts := verdictOptions(fs, xt)
	s, err := newCheckSetup(e, opts)
	defer s.close()
	if err != nil {
		r.fail(false, "check set-up: %v", err)
		return
	}
	a := newCheckStream(e.seed)
	a0 := readRuntime()
	var ops []checkOp
	for time.Since(a0.wall) < e.window/2 && a.sched.cold < len(s.inputs) {
		op := a.sched.next()
		ops = append(ops, op)
		a.send(r, s.srv, s.inputs[op.in], op, nil)
	}
	ad := a0.to(readRuntime())

	b, err := newCheckServer(e)
	defer b.close()
	if err != nil {
		r.fail(false, "second check server: %v", err)
		return
	}
	zeroLayers(r)
	lt := newLayerTotals(fs)
	var (
		parse, coldE2E, coldSpans, httpLat, httpLayers time.Duration
		nParse, nHTTP                                  int
	)
	// parseTimed parses a request's program, timing the call; it returns
	// the parse time too.
	parseTimed := func(text string) (*program.Program, time.Duration, error) {
		t0 := time.Now()
		res, err := program.Parse(text)
		d := time.Since(t0)
		parse += d
		nParse++
		if err != nil {
			return nil, d, err
		}
		return res.Program, d, nil
	}
	b0 := time.Now()
	for _, op := range ops {
		in := s.inputs[op.in]
		r.attempted++
		if !op.cached {
			t0 := time.Now()
			p, pd, err := parseTimed(in.text)
			if err != nil {
				r.fail(true, "%s: %v", in.name, err)
				continue
			}
			got, sp, err := tracedVerdict(b.store, p, fs, xt, opts)
			e2e := time.Since(t0)
			if err != nil {
				r.fail(true, "%s: traced verdict: %v", in.name, err)
				continue
			}
			if want, ok := a.first[op.in]; ok {
				if d := compareVerdicts(got.verdict, responseVerdict(want), false); d != "" {
					r.fail(true, "%s: stage-by-stage verdict differs from the /v1/check response: %s", in.name, d)
				}
			}
			if d := checkSpans(sp); d != "" {
				r.fail(true, "%s: %s", in.name, d)
			}
			lt.add(sp)
			coldE2E += e2e
			coldSpans += pd + sp.accounted()
			continue
		}
		cr, d, err := b.post(in.body)
		if err != nil {
			r.fail(true, "%s: %v", in.name, err)
			continue
		}
		p, pd, err := parseTimed(in.text)
		if err != nil {
			r.fail(true, "%s: %v", in.name, err)
			continue
		}
		got, sp, err := tracedVerdict(b.store, p, fs, xt, opts)
		if err != nil || !sp.cached || !cr.Cached || cr.ExploredNow != 0 {
			r.fail(true, "%s: re-send not a clean hit: cached=%v/%v explored_now=%d err=%v", in.name, cr.Cached, sp.cached, cr.ExploredNow, err)
			continue
		}
		if diff := compareVerdicts(responseVerdict(cr), got.verdict, true); diff != "" {
			r.fail(true, "%s: cached response differs from the stored verdict: %s", in.name, diff)
			continue
		}
		lt.add(sp)
		httpLat += d
		httpLayers += pd + sp.accounted()
		nHTTP++
	}
	bWall := time.Since(b0)
	if httpLayers > httpLat+spanSlack {
		r.fail(false, "cached-path layers sum to %v, more than the %v their requests took", httpLayers, httpLat)
	}

	setVerdictLayers(r, lt)
	setRuntimeLayers(r, ad, len(ops), a.states)
	r.set("program.parse_us", per(parse, nParse, time.Microsecond), "us/call")
	r.set("http.overhead_us", per(httpLat-httpLayers, nHTTP, time.Microsecond), "us/call")
	r.set("trace.overhead_pct", 100*(bWall.Seconds()-ad.wall.Seconds())/ad.wall.Seconds(), "%")
	r.set("trace.unaccounted_frac", unaccounted(coldE2E, coldSpans), "frac")
}
