package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/allocate"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/lifecycle"
	"repro/internal/loadctl"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// layerMetric is one per-layer metric of the layer run.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric the layer run prints, on any
// workload. README.md maps each to the end-to-end metric it should move.
// Counters come from the workload's own end-to-end run and read 0 where
// the workload does not exercise that layer.
var layerMetrics = []layerMetric{
	// api, serve, loadctl and net/http
	{"serve.handler_hit_us", "us"},
	{"serve.handler_miss_us", "us"},
	{"serve.handler_allocs", "count"},
	{"http.transport_us", "us"},
	{"api.decode_predict_us", "us"},
	{"api.decode_batch64_us", "us"},
	{"api.encode_batch64_us", "us"},
	{"loadctl.allow_ns", "ns"},
	{"loadctl.gate_ns", "ns"},
	{"serve.predict_hit_ns", "ns"},
	{"serve.predict_miss_us", "us"},
	{"serve.batch64_us", "us"},
	{"serve.allocate_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"runtime.gc_per_kreq", "count"},
	{"runtime.heap_mb", "MB"},
	// core, encoding, mat and allocate on the inference side
	{"core.infer64_us", "us"},
	{"mat.mul32_infer_gflops", "GFLOP/s"},
	{"encoding.props_ns", "ns"},
	{"allocate.sweep_us", "us"},
	// core, nn, mat and dataset on the training side
	{"core.pretrain_epoch_ms", "ms"},
	{"core.finetune_epoch_us", "us"},
	{"nn.fwd_bwd_us", "us"},
	{"nn.adam_step_us", "us"},
	{"mat.mul_train_gflops", "GFLOP/s"},
	{"core.clone_us", "us"},
	{"dataset.generate_ms", "ms"},
	// store, lifecycle, shard and the serve registry
	{"store.append_us", "us"},
	{"store.append_nosync_us", "us"},
	{"lifecycle.observe_us", "us"},
	{"shard.owner_ns", "ns"},
	{"shard.predict_hit_ns", "ns"},
	{"shard.handler_hit_us", "us"},
	{"core.save_us", "us"},
	{"store.checkpoint_ms", "ms"},
	{"lifecycle.drain_ms", "ms"},
	{"store.replay_ms", "ms"},
	{"store.replay_allocs_per_record", "count"},
	{"serve.registry_load_ms", "ms"},
	{"core.load_us", "us"},
	{"core.quantize_us", "us"},
	{"store.compact_ms", "ms"},
	{"store.wal_appends", "count"},
	{"lifecycle.finetunes", "count"},
	{"lifecycle.swaps", "count"},
	{"shard.repl_frames", "count"},
}

// perCall runs f in reps batches of n calls and returns the median time
// of one call.
func perCall(n int, f func()) time.Duration {
	const reps = 5
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(median(per))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocsPerCall counts heap allocations per call of f over n calls.
func allocsPerCall(n int, f func()) float64 {
	var a, b runtime.MemStats
	f()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// discardWriter is a reusable ResponseWriter that drops the body, so an
// in-process handler call is timed without a recorder's buffering.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(s int)           { d.status = s }

// replayBody is a request body that can be rewound without allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// handlerCall returns a function serving body at path through h with a
// reused request and writer, and failing the run on a non-2xx answer.
func handlerCall(h http.Handler, path string, body func() []byte) func() {
	req, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		panic(err) // constant method and path
	}
	req.RemoteAddr = "127.0.0.1:1"
	rb := &replayBody{}
	req.Body = rb
	w := &discardWriter{h: http.Header{}}
	return func() {
		rb.Reset(body())
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		if w.status/100 != 2 {
			panic(fmt.Sprintf("layer run: %s answered %d", path, w.status))
		}
	}
}

// layerRun measures every per-layer metric by timing calls into each
// module's public functions on the workloads' inputs for this seed; the
// counters come from the end-to-end run just made.
func layerRun(e *env, counters map[string]float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, l := range layerMetrics {
		out[l.name] = counters[l.name]
	}
	dir := filepath.Join(e.work, "layers")
	sim := simulate(e.seed)
	modelsDir := filepath.Join(dir, "models")
	if err := trainServedModels(modelsDir, sim, e.seed, e.sizes.servedEpochs); err != nil {
		return nil, err
	}
	pop := population(e.rng(1), sim, e.sizes.population)
	for _, step := range []func(*env, string, simulation, []query, map[string]float64) error{
		serveLayers, inferenceLayers, trainingLayers, storeLayers,
	} {
		if err := step(e, modelsDir, sim, pop, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func serveLayers(e *env, modelsDir string, _ simulation, pop []query, out map[string]float64) error {
	svc := serve.NewService(serve.DirLoader(modelsDir), serve.Options{})
	svc.AttachLoadControl(serve.LoadControl{
		Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e9}),
		Gate:    loadctl.NewGate(loadctl.GateConfig{}),
	})
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerOptions{})
	tracer.RegisterMetrics(reg, nil)
	svc.AttachObs(&serve.Observability{Metrics: reg, Tracer: tracer}, nil)
	h := svc.Handler()
	ctx := context.Background()
	for _, q := range pop { // load every model; the cache keeps the last entries
		svc.Predict(ctx, q.key, q.q)
	}
	hot := pop[len(pop)-1]
	next := 0
	miss := func() query { // a sequential scan of twice the cache misses every time
		q := pop[next%len(pop)]
		next++
		return q
	}

	hit := handlerCall(h, "/v1/predict", func() []byte { return hot.body })
	out["serve.handler_hit_us"] = us(perCall(2000, hit))
	out["serve.handler_allocs"] = allocsPerCall(2000, hit)
	out["serve.handler_miss_us"] = us(perCall(500, handlerCall(h, "/v1/predict", func() []byte { return miss().body })))

	ts := httptest.NewServer(h)
	defer ts.Close()
	c := newClient(ts.Listener.Addr().String())
	defer c.close()
	var resp api.PredictResponse
	rt := perCall(1000, func() {
		if _, err := c.post("/v1/predict", hot.body, &resp); err != nil {
			panic(err)
		}
	})
	out["http.transport_us"] = us(rt) - out["serve.handler_hit_us"]

	var pr api.PredictRequest
	out["api.decode_predict_us"] = us(perCall(2000, func() {
		if err := json.NewDecoder(bytes.NewReader(hot.body)).Decode(&pr); err != nil {
			panic(err)
		}
	}))
	batch := pop[:batchSize]
	bb := batchBody(batch)
	var br api.BatchRequest
	out["api.decode_batch64_us"] = us(perCall(200, func() {
		br = api.BatchRequest{}
		if err := json.NewDecoder(bytes.NewReader(bb)).Decode(&br); err != nil {
			panic(err)
		}
	}))
	resps := api.BatchResponse{Responses: make([]api.PredictResponse, batchSize)}
	for i, q := range batch {
		resps.Responses[i] = api.PredictResponse{RuntimeSec: q.ref + float64(i)/7, Cached: i%2 == 0}
	}
	w := &discardWriter{h: http.Header{}}
	out["api.encode_batch64_us"] = us(perCall(200, func() { api.WriteJSON(w, resps) }))

	lim := loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e9})
	now := time.Now()
	out["loadctl.allow_ns"] = float64(perCall(20000, func() { lim.Allow("127.0.0.1", now) }))
	gate := loadctl.NewGate(loadctl.GateConfig{})
	out["loadctl.gate_ns"] = float64(perCall(20000, func() {
		if err := gate.Acquire(ctx, loadctl.CostCheap); err != nil {
			panic(err)
		}
		gate.Release()
	}))

	svc.Predict(ctx, hot.key, hot.q)
	out["serve.predict_hit_ns"] = float64(perCall(20000, func() { svc.Predict(ctx, hot.key, hot.q) }))
	out["serve.predict_miss_us"] = us(perCall(500, func() {
		q := miss()
		svc.Predict(ctx, q.key, q.q)
	}))
	reqs := make([]serve.Request, batchSize)
	out["serve.batch64_us"] = us(perCall(100, func() {
		for i := range reqs {
			q := miss()
			reqs[i] = serve.Request{Key: q.key, Query: q.q}
		}
		svc.PredictBatch(ctx, reqs)
	}))
	areq := allocate.Request{Essential: hot.q.Essential, Optional: hot.q.Optional,
		MinScaleOut: 1, MaxScaleOut: sweepSize, DeadlineSec: hot.ref + 1, CostPerNodeHour: 1, SafetyMargin: 0.1}
	out["serve.allocate_us"] = us(perCall(200, func() {
		if _, err := svc.Allocate(ctx, hot.key, areq); err != nil {
			panic(err)
		}
	}))
	return nil
}

func inferenceLayers(e *env, modelsDir string, _ simulation, pop []query, out map[string]float64) error {
	key := pop[0].key
	m, err := core.LoadFile(filepath.Join(modelsDir, serve.ModelFileName(key)))
	if err != nil {
		return err
	}
	im, err := m.Quantize()
	if err != nil {
		return err
	}
	var qs []core.Query
	for _, q := range pop {
		if q.key == key && len(qs) < batchSize {
			qs = append(qs, q.q)
		}
	}
	dst := make([]float64, len(qs))
	out["core.infer64_us"] = us(perCall(500, func() {
		if err := im.PredictBatchInto(dst, qs); err != nil {
			panic(err)
		}
	}))

	// The f32 forward pass at batch 64: encoder 40→8, scale-out
	// network 16→8 and predictor 28→8, each a 64-row GEMM.
	cfg := m.Cfg
	out["mat.mul32_infer_gflops"] = gemmRate32(batchSize, [][2]int{
		{cfg.PropertySize, cfg.EncoderHidden},
		{cfg.ScaleOutHidden, cfg.ScaleOutDim},
		{cfg.CombinedDim(), cfg.PredictorHidden},
	})

	var values []string
	for _, q := range pop[:256] {
		for _, p := range q.q.Essential {
			values = append(values, p.Value)
		}
	}
	vec := make([]float64, cfg.PropertySize)
	out["encoding.props_ns"] = float64(perCall(5, func() {
		enc := encoding.NewPropertyEncoder(cfg.PropertySize)
		for _, v := range values {
			enc.EncodeTo(vec, v)
		}
	})) / float64(len(values))

	eng := allocate.NewEngine()
	var res allocate.Result
	areq := allocate.Request{Essential: qs[0].Essential, Optional: qs[0].Optional,
		MinScaleOut: 1, MaxScaleOut: sweepSize, DeadlineSec: 100, CostPerNodeHour: 1, SafetyMargin: 0.1}
	out["allocate.sweep_us"] = us(perCall(500, func() {
		if err := eng.AllocateInto(&res, im, areq); err != nil {
			panic(err)
		}
	}))
	return nil
}

// gemmRate32 times float32 GEMMs of rows×k by k×n for each (k, n) shape
// and reports the combined rate in GFLOP/s (2·rows·k·n per multiply).
func gemmRate32(rows int, shapes [][2]int) float64 {
	var flops float64
	var total time.Duration
	for _, s := range shapes {
		a, b, c := mat.NewDenseF32(rows, s[0]), mat.NewDenseF32(s[0], s[1]), mat.NewDenseF32(rows, s[1])
		for i := range a.Data {
			a.Data[i] = float32(i%7) / 7
		}
		for i := range b.Data {
			b.Data[i] = float32(i%5) / 5
		}
		total += perCall(2000, func() { mat.MulToF32(c, a, b) })
		flops += 2 * float64(rows*s[0]*s[1])
	}
	return flops / float64(total)
}

// gemmRate64 times the three float64 training multiplies — forward
// a·b, weight gradient aᵀ·g and input gradient g·bᵀ — at each (k, n)
// shape with rows-row batches, in GFLOP/s.
func gemmRate64(rows int, shapes [][2]int) float64 {
	var flops float64
	var total time.Duration
	for _, s := range shapes {
		k, n := s[0], s[1]
		a, b := mat.NewDense(rows, k), mat.NewDense(k, n)
		g, c := mat.NewDense(rows, n), mat.NewDense(rows, n)
		dw, dx := mat.NewDense(k, n), mat.NewDense(rows, k)
		for i := range a.Data {
			a.Data[i] = float64(i%7) / 7
		}
		for i := range b.Data {
			b.Data[i] = float64(i%5) / 5
		}
		for i := range g.Data {
			g.Data[i] = float64(i%3) / 3
		}
		total += perCall(2000, func() {
			mat.MulTo(c, a, b)
			mat.MulATBTo(dw, a, g)
			mat.MulABTTo(dx, g, b)
		})
		flops += 3 * 2 * float64(rows*k*n)
	}
	return flops / float64(total)
}

func trainingLayers(e *env, _ string, sim simulation, _ []query, out map[string]float64) error {
	out["dataset.generate_ms"] = ms(perCall(3, func() { dataset.GenerateC3O(dataset.SimConfig{Seed: e.seed}) }))

	samples := core.SamplesFromExecutions(sim.c3o.ForJob("sgd"))
	cfg := trainConfig(e, e.seed)
	cfg.PretrainEpochs = 5
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := m.Pretrain(samples); err != nil {
		return err
	}
	out["core.pretrain_epoch_ms"] = ms(time.Since(t0)) / float64(cfg.PretrainEpochs)

	ctxs := sim.c3o.Contexts("sgd")
	target := core.SamplesFromExecutions(sim.c3o.ForContext(ctxs[0].ID))[:15]
	const epochs = 100
	out["core.finetune_epoch_us"] = us(perCall(3, func() {
		c, err := m.Clone()
		if err != nil {
			panic(err)
		}
		if _, err := c.Finetune(target, core.FinetuneOptions{MaxEpochs: epochs}); err != nil {
			panic(err)
		}
	})) / epochs
	out["core.clone_us"] = us(perCall(200, func() {
		if _, err := m.Clone(); err != nil {
			panic(err)
		}
	}))

	// The predictor network z at the training batch shape.
	rows := cfg.BatchSize
	spec := nn.TwoLayerSpec{Name: "z", In: cfg.CombinedDim(), Hidden: cfg.PredictorHidden, Out: 1,
		ActHidden: nn.ActivationByName(cfg.Activation), ActOut: nn.Identity{}, WithBias: true,
		Dropout: cfg.Dropout, Init: cfg.Init}
	mlp := spec.Build(e.rng(5))
	ws := mat.NewWorkspace()
	x, target64 := mat.NewDense(rows, cfg.CombinedDim()), mat.NewDense(rows, 1)
	for i := range x.Data {
		x.Data[i] = float64(i%11) / 11
	}
	huber := nn.HuberLoss{Delta: cfg.HuberDelta}
	out["nn.fwd_bwd_us"] = us(perCall(2000, func() {
		pred := mlp.Forward(ws, x, true)
		_, grad := huber.Compute(ws, pred, target64)
		mlp.Backward(ws, grad)
		ws.Reset()
	}))
	params := m.Params()
	adam := nn.NewAdam(cfg.LearningRate, cfg.WeightDecay)
	out["nn.adam_step_us"] = us(perCall(2000, func() { adam.Step(params) }))

	out["mat.mul_train_gflops"] = gemmRate64(rows, [][2]int{
		{cfg.PropertySize, cfg.EncoderHidden},
		{cfg.EncoderHidden, cfg.EncodingDim},
		{cfg.ScaleOutHidden, cfg.ScaleOutDim},
		{cfg.CombinedDim(), cfg.PredictorHidden},
	})
	return nil
}

func storeLayers(e *env, modelsDir string, sim simulation, pop []query, out map[string]float64) error {
	dir := filepath.Join(e.work, "layers", "store")
	keys := servedKeys()
	k := keys[0]
	s := core.SamplesFromExecutions(sim.c3o.ForJob(k.Job))[0]
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		name  string
		fsync store.FsyncPolicy
		n     int
	}{{"store.append_us", store.FsyncAlways, 200}, {"store.append_nosync_us", store.FsyncNever, 5000}} {
		st, err := store.Open(filepath.Join(dir, c.name), store.Options{Fsync: c.fsync})
		if err != nil {
			return err
		}
		out[c.name] = us(perCall(c.n, func() {
			if err := st.AppendObservation(k.Job, k.Env, s, at); err != nil {
				panic(err)
			}
		}))
		if err := st.Close(); err != nil {
			return err
		}
	}

	// The lifecycle path: an observing registry over a durable store.
	reg := serve.NewRegistry(serve.DirLoader(modelsDir), len(keys))
	st, err := store.Open(filepath.Join(dir, "lifecycle"), store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		return err
	}
	ctl := lifecycle.New(reg, lifecycle.Config{Log: st, Checkpoint: st, BufferCap: e.sizes.observeBuffer,
		MinSamples: e.sizes.observeBuffer, Interval: time.Hour})
	q := core.Query{ScaleOut: s.ScaleOut, Essential: s.Essential, Optional: s.Optional}
	ctx := context.Background()
	out["lifecycle.observe_us"] = us(perCall(100, func() {
		if err := ctl.Observe(ctx, k, q, s.RuntimeSec); err != nil {
			panic(err)
		}
	}))
	for _, key := range keys[1:] {
		ks := core.SamplesFromExecutions(sim.env(key.Env).ForJob(key.Job))
		for i := 0; i < e.sizes.observeBuffer; i++ {
			x := ks[i%len(ks)]
			if err := ctl.Observe(ctx, key, core.Query{ScaleOut: x.ScaleOut, Essential: x.Essential, Optional: x.Optional}, x.RuntimeSec); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	if n := ctl.Drain(); n != len(keys) {
		return fmt.Errorf("layer run: drain installed %d versions, want %d", n, len(keys))
	}
	out["lifecycle.drain_ms"] = ms(time.Since(t0))
	if err := st.Close(); err != nil {
		return err
	}

	// The shard router over two single-node services.
	ring := shard.NewRing(writeShards, 0)
	out["shard.owner_ns"] = float64(perCall(20000, func() { ring.Owner(k.Job, k.Env) }))
	nodes := make([]shard.NodeConfig, writeShards)
	for i := range nodes {
		nodes[i] = shard.NodeConfig{Service: serve.NewService(serve.DirLoader(modelsDir), serve.Options{}),
			Gate: loadctl.NewGate(loadctl.GateConfig{})}
	}
	cl, err := shard.New(nodes, shard.Options{Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e9})})
	if err != nil {
		return err
	}
	// Telemetry wired as `bellamy serve -shards 2` wires it.
	creg := obs.NewRegistry()
	co := &serve.Observability{Metrics: creg, Tracer: obs.NewTracer(obs.TracerOptions{})}
	co.Tracer.RegisterMetrics(creg, nil)
	cl.AttachObs(co)
	for i, nc := range nodes {
		nc.Service.AttachObs(co, obs.Labels{"shard": fmt.Sprint(i)})
	}
	hot := pop[0]
	sreq := serve.Request{Key: hot.key, Query: hot.q}
	cl.Predict(ctx, sreq)
	out["shard.predict_hit_ns"] = float64(perCall(20000, func() { cl.Predict(ctx, sreq) }))
	out["shard.handler_hit_us"] = us(perCall(2000, handlerCall(cl.Handler(), "/v1/predict", func() []byte { return hot.body })))

	// Checkpoint, load and quantize one served model.
	path := filepath.Join(modelsDir, serve.ModelFileName(k))
	m, err := core.LoadFile(path)
	if err != nil {
		return err
	}
	var blob bytes.Buffer
	out["core.save_us"] = us(perCall(200, func() {
		blob.Reset()
		if err := m.Save(&blob); err != nil {
			panic(err)
		}
	}))
	out["core.load_us"] = us(perCall(200, func() {
		if _, err := core.Load(bytes.NewReader(blob.Bytes())); err != nil {
			panic(err)
		}
	}))
	out["core.quantize_us"] = us(perCall(200, func() {
		if _, err := m.Quantize(); err != nil {
			panic(err)
		}
	}))
	ck, err := store.Open(filepath.Join(dir, "ckpt"), store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		return err
	}
	v := uint64(1)
	out["store.checkpoint_ms"] = ms(perCall(20, func() {
		v++
		if err := ck.CheckpointModel(k.Job, k.Env, v, blob.Bytes()); err != nil {
			panic(err)
		}
	}))
	if err := ck.Close(); err != nil {
		return err
	}
	out["serve.registry_load_ms"] = ms(perCall(20, func() {
		r := serve.NewRegistry(serve.DirLoader(modelsDir), 1)
		if _, err := r.Get(ctx, k); err != nil {
			panic(err)
		}
	}))

	// Compaction and replay of a seeded data dir.
	seeded := filepath.Join(dir, "seeded")
	if err := seedDataDir(seeded, sim, ring, e.sizes.seedObs); err != nil {
		return err
	}
	var replays, allocs []float64
	for i := 0; i < 3; i++ {
		rs, err := store.Open(filepath.Join(seeded, "shard-0"), store.Options{Fsync: store.FsyncNever})
		if err != nil {
			return err
		}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		n := 0
		if err := rs.Replay(store.ReplayHandler{Observation: func(string, string, core.Sample, time.Time) { n++ }}); err != nil {
			return err
		}
		replays = append(replays, ms(time.Since(t0)))
		runtime.ReadMemStats(&b)
		allocs = append(allocs, float64(b.Mallocs-a.Mallocs)/float64(max(n, 1)))
		if err := rs.Close(); err != nil {
			return err
		}
	}
	out["store.replay_ms"] = median(replays)
	out["store.replay_allocs_per_record"] = median(allocs)

	var compacts []float64
	for i := 0; i < 3; i++ {
		cd := filepath.Join(dir, fmt.Sprintf("compact-%d", i))
		cs, err := store.Open(cd, store.Options{Fsync: store.FsyncNever, SegmentBytes: 256 << 10})
		if err != nil {
			return err
		}
		for j := 0; j < 20000; j++ {
			x := pop[j%len(pop)]
			if err := cs.AppendObservation(x.key.Job, x.key.Env, core.Sample{ScaleOut: x.q.ScaleOut,
				Essential: x.q.Essential, Optional: x.q.Optional, RuntimeSec: 1 + float64(j%97)}, at.Add(time.Duration(j)*time.Millisecond)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := cs.CompactNow(); err != nil {
			return err
		}
		compacts = append(compacts, ms(time.Since(t0)))
		if err := cs.Close(); err != nil {
			return err
		}
	}
	out["store.compact_ms"] = median(compacts)
	return os.RemoveAll(dir)
}

// runtimeCounters derives the per-layer runtime counters of a server
// from two /metrics scrapes around ops operations.
func runtimeCounters(before, after map[string]float64, ops float64, counters map[string]float64) {
	hits := sumPrefix(after, "bellamy_result_cache_hits_total") - sumPrefix(before, "bellamy_result_cache_hits_total")
	misses := sumPrefix(after, "bellamy_result_cache_misses_total") - sumPrefix(before, "bellamy_result_cache_misses_total")
	if hits+misses > 0 {
		counters["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	counters["runtime.gc_per_kreq"] = (after["go_gc_cycles_total"] - before["go_gc_cycles_total"]) / (ops / 1000)
	counters["runtime.heap_mb"] = after["go_heap_alloc_bytes"] / (1 << 20)
}
