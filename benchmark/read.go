package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serve"
)

// The serve-read traffic: every round is readRound operations in a
// shuffled order, mostly single predictions with a steady minority of
// 64-query batches and 64-candidate allocation sweeps.
const (
	readPredicts  = 90
	readBatches   = 5
	readAllocates = 5
	readRound     = readPredicts + readBatches + readAllocates
	batchSize     = 64
	sweepSize     = 64
)

// readInputs is everything a serve-read run draws its traffic from.
type readInputs struct {
	modelsDir string
	pop       []query
	allocs    []allocQuery
}

// allocPopulation draws n allocation sweeps over scale-outs 1..64, each
// with the float64 reference curve and a deadline placed near the
// smoothed runtime of a random candidate, so sweeps cross the limit at
// different scale-outs and some, placed at the fastest, are infeasible.
func allocPopulation(rng *rand.Rand, pop []query, refs map[serve.ModelKey]*core.Model, n int) ([]allocQuery, error) {
	const margin = 0.1
	factors := []float64{0.9, 1.05, 1.3, 1.8, 3}
	out := make([]allocQuery, 0, n)
	for len(out) < n {
		base := pop[rng.Intn(len(pop))]
		qs := make([]core.Query, sweepSize)
		for j := range qs {
			qs[j] = core.Query{ScaleOut: 1 + j, Essential: base.q.Essential, Optional: base.q.Optional}
		}
		ref, err := refs[base.key].PredictBatch(qs)
		if err != nil {
			return nil, err
		}
		fit := nonIncreasingFit(ref)
		level := fit[rng.Intn(len(fit))]
		if level <= 0 {
			level = fit[0]
		}
		if level <= 0 {
			continue // the model clamps this context to zero everywhere: no deadline fits
		}
		req := api.AllocateRequest{
			Job: base.key.Job, Env: base.key.Env,
			Essential: wireProps(base.q.Essential), Optional: wireProps(base.q.Optional),
			MinScaleOut: 1, MaxScaleOut: sweepSize,
			DeadlineSec:     level / (1 - margin) * factors[rng.Intn(len(factors))],
			CostPerNodeHour: 1,
			SafetyMargin:    margin,
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		a := allocQuery{query: base, req: req, ref: ref}
		a.body = body
		out = append(out, a)
	}
	return out, nil
}

// batchBody joins pre-encoded prediction bodies into one batch request.
func batchBody(qs []query) []byte {
	var b bytes.Buffer
	b.WriteString(`{"requests":[`)
	for i, q := range qs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(q.body)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// readSetup simulates, trains and saves the eight served models, builds
// the query population with its references, and starts a warmed server.
func readSetup(e *env, dir string) (*readInputs, *server, error) {
	sim := simulate(e.seed)
	in := &readInputs{modelsDir: filepath.Join(dir, "models")}
	if err := trainServedModels(in.modelsDir, sim, e.seed, e.sizes.servedEpochs); err != nil {
		return nil, nil, err
	}
	refs, err := loadReferences(in.modelsDir)
	if err != nil {
		return nil, nil, err
	}
	rng := e.rng(1)
	in.pop = population(rng, sim, e.sizes.population)
	if err := fillReferences(in.pop, refs); err != nil {
		return nil, nil, err
	}
	if in.allocs, err = allocPopulation(rng, in.pop, refs, 256); err != nil {
		return nil, nil, err
	}
	srv, err := startReadServer(e, in)
	if err != nil {
		return nil, nil, err
	}
	// Warm-up: one pass over the population in batches loads every
	// model and leaves the result cache holding its last entries, the
	// state uniform traffic keeps it in.
	c := newClient(srv.addr)
	defer c.close()
	for lo := 0; lo < len(in.pop); lo += batchSize {
		var resp api.BatchResponse
		if _, err := c.post("/v1/predict/batch", batchBody(in.pop[lo:min(lo+batchSize, len(in.pop))]), &resp); err != nil {
			srv.kill()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return in, srv, nil
}

// startReadServer starts the single-node, float32-serving server with
// no store and no observe. The limiter stays on the path with a rate no
// run reaches.
func startReadServer(e *env, in *readInputs) (*server, error) {
	return startServer(e.bellamy, []string{"-models", in.modelsDir, "-rate-limit", "1e9"})
}

func runServeRead(e *env) (*outcome, error) {
	o := newOutcome()
	var in *readInputs
	var srv *server
	var setups []float64
	for i := 0; i < e.sizes.setups; i++ {
		if srv != nil {
			srv.kill()
		}
		t0 := time.Now()
		var err error
		in, srv, err = readSetup(e, filepath.Join(e.work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	mc := newClient(srv.addr)
	defer mc.close()
	before, err := mc.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	lat := readLoop(e, in, srv.addr, o)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	after, err := mc.scrape()
	if err != nil {
		return nil, err
	}
	ops := float64(o.attempted - o.failed)
	cpuPerOp := float64(cpu1-cpu0) / float64(time.Microsecond) / ops

	// Restart to first answer: a fresh process over the same models
	// directory, timed from its start until the first prediction is
	// answered (process start, model load and quantization included).
	var restarts, restartsCPU []float64
	for i := 0; i < e.sizes.restarts; i++ {
		// A store-less server has nothing to drain. It is killed, not
		// sent SIGTERM: bellamy serve installs its SIGTERM handler only
		// after it starts answering, and a SIGTERM in that window ends
		// the process without its drain.
		srv.kill()
		srv = nil
		q := in.pop[i%len(in.pop)]
		var r restart
		srv, r, err = restartAndPredict(func() (*server, error) { return startReadServer(e, in) }, q, o)
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, ms(r.wall))
		restartsCPU = append(restartsCPU, ms(r.cpu))
	}

	runtimeCounters(before, after, ops, o.counters)

	m := o.metrics
	m["setup_s"] = median(setups)
	m["max_rss_mb"] = rss
	m["cpu_us_per_op"] = cpuPerOp
	m["op_p50_us"] = median(lat.predict)
	m["op2_p50_us"] = median(lat.batch)
	m["heavy_ms"] = median(lat.allocate) / 1000
	m["restart_ms"] = median(restartsCPU)
	o.name("setup_s", m["setup_s"], "s")
	o.name("cpu_us_per_req", cpuPerOp, "us")
	o.name("predict_p50_us", m["op_p50_us"], "us")
	o.name("predict_p99_us", tail(lat.predict), "us")
	o.name("batch_p50_us", m["op2_p50_us"], "us")
	o.name("allocate_p50_us", median(lat.allocate), "us")
	o.name("restart_ms", median(restarts), "ms")
	o.name("restart_cpu_ms", m["restart_ms"], "ms")
	o.name("max_rss_mb", rss, "MB")
	o.name("predicts", float64(len(lat.predict)), "")
	o.name("cache_hit_ratio", o.counters["serve.cache_hit_ratio"], "")
	return o, nil
}

type readLatencies struct {
	predict, batch, allocate latencies
}

// readLoop drives the closed loop on one keep-alive connection: whole
// rounds until the measured time is up, checking every answer.
func readLoop(e *env, in *readInputs, addr string, o *outcome) readLatencies {
	rng := e.rng(100)
	c := newClient(addr)
	defer c.close()
	var lat readLatencies
	kinds := make([]int, 0, readRound)
	for i := 0; i < readRound; i++ {
		switch {
		case i < readPredicts:
			kinds = append(kinds, 0)
		case i < readPredicts+readBatches:
			kinds = append(kinds, 1)
		default:
			kinds = append(kinds, 2)
		}
	}
	batch := make([]query, batchSize)
	for deadline := time.Now().Add(e.seconds); time.Now().Before(deadline); {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			o.attempted++
			switch k {
			case 0:
				q := in.pop[rng.Intn(len(in.pop))]
				var resp api.PredictResponse
				d, err := c.post("/v1/predict", q.body, &resp)
				if err != nil {
					o.failure("predict: %v", err)
					continue
				}
				lat.predict.add(d)
				if err := checkPredict(resp, q); err != nil {
					o.wrong("%v", err)
				}
			case 1:
				for i := range batch {
					batch[i] = in.pop[rng.Intn(len(in.pop))]
				}
				var resp api.BatchResponse
				d, err := c.post("/v1/predict/batch", batchBody(batch), &resp)
				if err != nil {
					o.failure("batch: %v", err)
					continue
				}
				lat.batch.add(d)
				if err := checkBatch(resp, batch); err != nil {
					o.wrong("%v", err)
				}
			case 2:
				a := in.allocs[rng.Intn(len(in.allocs))]
				var resp api.AllocateResponse
				d, err := c.post("/v1/allocate", a.body, &resp)
				if err != nil {
					o.failure("allocate: %v", err)
					continue
				}
				lat.allocate.add(d)
				if err := checkAllocation(resp, a); err != nil {
					o.wrong("%v", err)
				}
			}
		}
	}
	return lat
}

// restart is a server restart timed until its first answer: wall clock
// from process start, and the CPU time the new process used until then.
type restart struct{ wall, cpu time.Duration }

// restartAndPredict starts a server and times it from process start
// until q is answered; the answer is checked against q's reference.
func restartAndPredict(start func() (*server, error), q query, o *outcome) (*server, restart, error) {
	srv, err := start()
	if err != nil {
		return nil, restart{}, err
	}
	c := newClient(srv.addr)
	defer c.close()
	var resp api.PredictResponse
	o.attempted++
	if _, err := c.post("/v1/predict", q.body, &resp); err != nil {
		srv.kill()
		return nil, restart{}, fmt.Errorf("first predict after restart: %w", err)
	}
	r := restart{wall: time.Since(srv.started)}
	if r.cpu, err = procThreadsCPU(srv.pid()); err != nil {
		srv.kill()
		return nil, restart{}, err
	}
	if err := checkPredict(resp, q); err != nil {
		o.wrong("after restart: %v", err)
	}
	return srv, r, nil
}
