package main

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// writeShards is the serve-write shard count.
const writeShards = 2

// writeInputs is everything a serve-write run draws its traffic from.
type writeInputs struct {
	modelsDir string
	seedDir   string // the seeded data dir every cycle starts from
	seeded    int64  // observations in seedDir
	queries   []query
	observe   map[serve.ModelKey][][]byte // per key, observe bodies in send order
	ring      *shard.Ring
}

// seedDataDir writes n observations, spread evenly over the served keys
// and interleaved in time, into the owning shard's store under dir; logs
// a digest per key so replay marks them digested; and compacts the
// sealed WAL segments, so the history sits partly in columnar segments
// and partly in the WAL.
func seedDataDir(dir string, sim simulation, ring *shard.Ring, n int) error {
	keys := servedKeys()
	stores := make([]*store.Store, writeShards)
	for i := range stores {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), store.Options{Fsync: store.FsyncNever})
		if err != nil {
			return err
		}
		stores[i] = st
	}
	samples := make([][]core.Sample, len(keys))
	for i, k := range keys {
		samples[i] = core.SamplesFromExecutions(sim.env(k.Env).ForJob(k.Job))
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	counts := make([]int, len(keys))
	for i := 0; i < n; i++ {
		ki := i % len(keys)
		k := keys[ki]
		s := samples[ki][counts[ki]%len(samples[ki])]
		counts[ki]++
		if err := stores[ring.Owner(k.Job, k.Env)].AppendObservation(k.Job, k.Env, s, base.Add(time.Duration(i)*time.Millisecond)); err != nil {
			return err
		}
	}
	end := base.Add(time.Duration(n) * time.Millisecond)
	for ki, k := range keys {
		if err := stores[ring.Owner(k.Job, k.Env)].AppendDigest(k.Job, k.Env, counts[ki], end); err != nil {
			return err
		}
	}
	for _, st := range stores {
		if _, err := st.CompactNow(); err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// observeWindows is how many distinct observation windows a key cycles
// through. Each cycle's drain fine-tunes one window per key, so a run's
// median drain covers several windows instead of resting on how early
// one window's fine-tune happens to stop.
const observeWindows = 8

// observeBodies draws each key's observations from contexts the served
// models never saw (a second simulation), in a fixed per-key order:
// window w of a key is bodies [w·ingestPerKey, (w+1)·ingestPerKey).
func observeBodies(e *env, sim simulation) map[serve.ModelKey][][]byte {
	rng := e.rng(3)
	out := map[serve.ModelKey][][]byte{}
	for _, k := range servedKeys() {
		execs := sim.env(k.Env).ForJob(k.Job)
		for n := 0; n < observeWindows*e.sizes.ingestPerKey; n++ {
			x := execs[rng.Intn(len(execs))]
			ess, opt := contextProps(x.Context, x.Context.DatasetSizeMB)
			q := newQuery(k, ess, opt, x.ScaleOut)
			body := append([]byte(nil), q.body[:len(q.body)-1]...)
			body = append(body, fmt.Sprintf(`,"runtime_sec":%s}`, strconv.FormatFloat(x.RuntimeSec, 'g', -1, 64))...)
			out[k] = append(out[k], body)
		}
	}
	return out
}

func writeSetup(e *env, dir string) (*writeInputs, *server, error) {
	sim := simulate(e.seed)
	in := &writeInputs{
		modelsDir: filepath.Join(dir, "models"),
		seedDir:   filepath.Join(dir, "seed"),
		seeded:    int64(e.sizes.seedObs),
		ring:      shard.NewRing(writeShards, 0),
	}
	if err := trainServedModels(in.modelsDir, sim, e.seed, e.sizes.servedEpochs); err != nil {
		return nil, nil, err
	}
	refs, err := loadReferences(in.modelsDir)
	if err != nil {
		return nil, nil, err
	}
	in.queries = population(e.rng(4), sim, e.sizes.ingestQueries)
	if err := fillReferences(in.queries, refs); err != nil {
		return nil, nil, err
	}
	in.observe = observeBodies(e, simulate(e.seed+1_000_003))
	if err := seedDataDir(in.seedDir, sim, in.ring, e.sizes.seedObs); err != nil {
		return nil, nil, err
	}
	srv, err := startCycle(e, in, filepath.Join(dir, "cycle"))
	if err != nil {
		return nil, nil, err
	}
	return in, srv, nil
}

// startCycle copies the seeded data dir to dataDir, starts the sharded,
// durable, observing server over it, and warms it: every model loaded,
// every predict query cached.
func startCycle(e *env, in *writeInputs, dataDir string) (*server, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	if err := copyDir(in.seedDir, dataDir); err != nil {
		return nil, err
	}
	srv, err := startWriteServer(e, in, dataDir)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.addr)
	defer c.close()
	for lo := 0; lo < len(in.queries); lo += batchSize {
		var resp api.BatchResponse
		if _, err := c.post("/v1/predict/batch", batchBody(in.queries[lo:min(lo+batchSize, len(in.queries))]), &resp); err != nil {
			srv.kill()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return srv, nil
}

// startWriteServer starts `serve -shards 2 -observe -data-dir … -fsync
// always`. The fine-tune scan and compaction tickers are set far beyond
// any run, so fine-tunes happen only in the drain and no compaction runs
// during a measured phase.
func startWriteServer(e *env, in *writeInputs, dataDir string) (*server, error) {
	buf := strconv.Itoa(e.sizes.observeBuffer)
	return startServer(e.bellamy, []string{
		"-models", in.modelsDir, "-shards", strconv.Itoa(writeShards),
		"-observe", "-data-dir", dataDir, "-fsync", "always",
		"-rate-limit", "1e9", "-finetune-interval", "1h", "-compact-interval", "1h",
		"-observe-buffer", buf, "-finetune-min-samples", buf,
	})
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeCycle is what one ingest → drain → restart cycle measured.
type writeCycle struct {
	observe, predict latencies
	requests         int64
	cpu              time.Duration
	drain, restart   time.Duration
	drainCPU         time.Duration // the server's CPU time from SIGTERM to exit
	restartCPU       time.Duration // the restarted server's CPU time to its first answer
	rss              float64
	counters         map[string]float64 // per-layer counters of this cycle
}

func runServeWrite(e *env) (*outcome, error) {
	o := newOutcome()
	var in *writeInputs
	var srv *server
	var setups []float64
	for i := 0; i < e.sizes.setups; i++ {
		if srv != nil {
			srv.kill()
		}
		t0 := time.Now()
		var err error
		in, srv, err = writeSetup(e, filepath.Join(e.work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var cycles []writeCycle
	dataDir := filepath.Join(e.work, fmt.Sprintf("setup-%d", e.sizes.setups-1), "cycle")
	deadline := time.Now().Add(e.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if n > 0 {
			var err error
			if srv, err = startCycle(e, in, dataDir); err != nil {
				return nil, err
			}
		}
		cy, err := runWriteCycle(e, in, srv, dataDir, n%observeWindows, o)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", n, err)
		}
		cycles = append(cycles, cy)
	}

	var obs, pred latencies
	var drains, drainsCPU, restarts, restartsCPU, rss []float64
	var cpu time.Duration
	var reqs int64
	for _, c := range cycles {
		obs = merge(obs, c.observe)
		pred = merge(pred, c.predict)
		drains = append(drains, ms(c.drain))
		drainsCPU = append(drainsCPU, ms(c.drainCPU))
		restarts = append(restarts, ms(c.restart))
		restartsCPU = append(restartsCPU, ms(c.restartCPU))
		rss = append(rss, c.rss)
		cpu += c.cpu
		reqs += c.requests
	}
	for _, name := range []string{"serve.cache_hit_ratio", "runtime.gc_per_kreq", "runtime.heap_mb",
		"store.wal_appends", "lifecycle.finetunes", "lifecycle.swaps", "shard.repl_frames"} {
		var v []float64
		for _, c := range cycles {
			v = append(v, c.counters[name])
		}
		o.counters[name] = median(v)
	}
	m := o.metrics
	m["setup_s"] = median(setups)
	m["max_rss_mb"] = median(rss)
	m["cpu_us_per_op"] = float64(cpu) / float64(time.Microsecond) / float64(reqs)
	m["op_p50_us"] = median(pred)
	m["op2_p50_us"] = median(obs)
	m["heavy_ms"] = median(drainsCPU)
	m["restart_ms"] = median(restartsCPU)
	o.name("setup_s", m["setup_s"], "s")
	o.name("cpu_us_per_req", m["cpu_us_per_op"], "us")
	o.name("predict_p50_us", m["op_p50_us"], "us")
	o.name("predict_p99_us", tail(pred), "us")
	o.name("observe_p50_us", m["op2_p50_us"], "us")
	o.name("observe_p99_us", tail(obs), "us")
	o.name("drain_s", median(drains)/1000, "s")
	o.name("drain_cpu_s", m["heavy_ms"]/1000, "s")
	o.name("restart_s", median(restarts)/1000, "s")
	o.name("restart_cpu_s", m["restart_ms"]/1000, "s")
	o.name("max_rss_mb", m["max_rss_mb"], "MB")
	o.name("cycles", float64(len(cycles)), "")
	return o, nil
}

var (
	swapRE   = regexp.MustCompile(`msg="lifecycle: model hot-swapped".* job=(\S+) env=(\S+) version=(\d+)`)
	digestRE = regexp.MustCompile(`msg="drain: digested pending observations".* model_versions=(\d+)`)
)

// runWriteCycle runs one cycle on a warmed server over dataDir: ingest,
// drain, restart, and the durability and version checks.
func runWriteCycle(e *env, in *writeInputs, srv *server, dataDir string, window int, o *outcome) (cy writeCycle, err error) {
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	keys := servedKeys()
	cy.counters = map[string]float64{}
	c := newClient(srv.addr)
	defer c.close()
	before, err := c.scrape()
	if err != nil {
		return cy, err
	}

	// Ingest on one keep-alive connection: each key's observations in
	// their fixed order, each followed by a prediction of the cached
	// query set.
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return cy, err
	}
	var acked, transportErrs int64
	rng := e.rng(200)
	for i := 0; i < e.sizes.ingestPerKey; i++ {
		for _, k := range keys {
			cy.requests += 2
			var resp api.ObserveResponse
			d, err := c.post("/v1/observe", in.observe[k][window*e.sizes.ingestPerKey+i], &resp)
			switch {
			case err != nil:
				transportErrs++
				o.failure("observe %s: %v", k, err)
			case !resp.Accepted:
				o.failure("observe %s: not accepted", k)
			default:
				acked++
				cy.observe.add(d)
			}
			q := in.queries[rng.Intn(len(in.queries))]
			var pres api.PredictResponse
			d, err = c.post("/v1/predict", q.body, &pres)
			if err != nil {
				o.failure("predict: %v", err)
				continue
			}
			cy.predict.add(d)
			if err := checkPredict(pres, q); err != nil {
				o.wrong("%v", err)
			}
		}
	}
	o.attempted += cy.requests
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return cy, err
	}
	cy.cpu = cpu1 - cpu0
	if cy.rss, err = procPeakRSSMB(srv.pid()); err != nil {
		return cy, err
	}

	after, err := c.scrape()
	if err != nil {
		return cy, err
	}
	runtimeCounters(before, after, float64(cy.requests), cy.counters)
	var stats api.ClusterStats
	if err := c.getJSON("/v1/stats", &stats); err != nil {
		return cy, err
	}
	versions, err := residentVersions(c)
	if err != nil {
		return cy, err
	}
	for _, sh := range stats.Shards {
		if sh.Stats.Store != nil {
			cy.counters["store.wal_appends"] += float64(sh.Stats.Store.WALAppends)
		}
		if lc := sh.Stats.Lifecycle; lc == nil || lc.Finetunes != 0 || lc.FinetuneErrors != 0 || lc.LogErrors != 0 {
			o.wrong("shard %d before the drain: lifecycle %+v, want no fine-tunes and no errors", sh.ID, lc)
		}
	}

	// Drain: SIGTERM fine-tunes, checkpoints and replicates every
	// observed key, then seals the WALs.
	cpuPre, err := procCPU(srv.pid())
	if err != nil {
		return cy, err
	}
	if cy.drain, err = srv.stop(); err != nil {
		return cy, err
	}
	cy.drainCPU = srv.exitCPU() - cpuPre
	drain := parseDrain(srv.logLines())
	srv = nil
	cy.counters["lifecycle.finetunes"] = float64(drain.finetuned)
	cy.counters["lifecycle.swaps"] = float64(len(drain.swapped))
	for _, err := range checkDrain(keys, versions, drain) {
		o.wrong("%v", err)
	}
	probes, err := checkpointProbes(in, dataDir, keys)
	if err != nil {
		return cy, err
	}

	// Restart over the same dir, timed until the first predict answers.
	var r restart
	srv, r, err = restartAndPredict(func() (*server, error) { return startWriteServer(e, in, dataDir) }, probes[0], o)
	if err != nil {
		return cy, err
	}
	cy.restart, cy.restartCPU = r.wall, r.cpu
	c = newClient(srv.addr)
	defer c.close()
	for _, q := range probes[1:] {
		o.attempted++
		var resp api.PredictResponse
		if _, err := c.post("/v1/predict", q.body, &resp); err != nil {
			o.failure("predict after restart: %v", err)
			continue
		}
		if err := checkPredict(resp, q); err != nil {
			o.wrong("after restart: %v", err)
		}
	}
	reloaded, err := residentVersions(c)
	if err != nil {
		return cy, err
	}
	var restarted api.ClusterStats
	if err := c.getJSON("/v1/stats", &restarted); err != nil {
		return cy, err
	}
	if restarted.Replication != nil {
		cy.counters["shard.repl_frames"] = float64(restarted.Replication.FramesSent)
	}
	var replayed int64
	for _, sh := range restarted.Shards {
		if sh.Stats.Store != nil {
			replayed += sh.Stats.Store.ReplayedObservations
		}
	}
	for _, err := range checkRestart(keys, drain, reloaded, replayed, in.seeded, acked, transportErrs) {
		o.wrong("%v", err)
	}
	if rss, err := procPeakRSSMB(srv.pid()); err == nil {
		cy.rss = math.Max(cy.rss, rss)
	}
	// The restarted server holds nothing new and its data dir is
	// discarded: it is killed, as a SIGTERM this soon after start can
	// miss the drain handler (see startServer callers in read.go).
	srv.kill()
	srv = nil
	return cy, nil
}

// drainReport is what a drained server's log says the drain did.
type drainReport struct {
	swapped   map[serve.ModelKey]uint64 // installed version per key
	finetuned int                       // model versions the drain fine-tuned
}

func parseDrain(lines []string) drainReport {
	d := drainReport{swapped: map[serve.ModelKey]uint64{}}
	for _, line := range lines {
		if m := swapRE.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseUint(m[3], 10, 64)
			d.swapped[serve.ModelKey{Job: m[1], Env: m[2]}] = v
		}
		if m := digestRE.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[1])
			d.finetuned += n
		}
	}
	return d
}

// checkDrain holds the drain checks: one fine-tune per observed key, and
// every observed key's version moved forward.
func checkDrain(keys []serve.ModelKey, before map[serve.ModelKey]uint64, d drainReport) []error {
	var errs []error
	if d.finetuned != len(keys) || len(d.swapped) != len(keys) {
		errs = append(errs, fmt.Errorf("drain fine-tuned %d model versions and swapped %d keys, want %d observed keys", d.finetuned, len(d.swapped), len(keys)))
	}
	for _, k := range keys {
		if !(d.swapped[k] > before[k]) {
			errs = append(errs, fmt.Errorf("%s: version %d before the drain, %d after: did not move forward", k, before[k], d.swapped[k]))
		}
	}
	return errs
}

// checkRestart holds the restart checks: every key serves the version
// the drain installed, and the replayed observations are at least the
// seeded plus the acknowledged ones, and at most that plus the observes
// whose client saw a transport error.
func checkRestart(keys []serve.ModelKey, d drainReport, after map[serve.ModelKey]uint64, replayed, seeded, acked, transportErrs int64) []error {
	var errs []error
	for _, k := range keys {
		if after[k] != d.swapped[k] {
			errs = append(errs, fmt.Errorf("%s: version %d after the drain, %d after the restart", k, d.swapped[k], after[k]))
		}
	}
	if lo, hi := seeded+acked, seeded+acked+transportErrs; replayed < lo || replayed > hi {
		errs = append(errs, fmt.Errorf("replayed %d observations, want between %d (seeded + acknowledged) and %d", replayed, lo, hi))
	}
	return errs
}

// residentVersions reads every key's highest resident version from the
// topology endpoint.
func residentVersions(c *client) (map[serve.ModelKey]uint64, error) {
	var topo api.TopologyResponse
	if err := c.getJSON("/v1/shards", &topo); err != nil {
		return nil, err
	}
	out := map[serve.ModelKey]uint64{}
	for _, sh := range topo.Shards {
		for _, m := range sh.Models {
			k := serve.ModelKey{Job: m.Job, Env: m.Env}
			out[k] = max(out[k], m.Version)
		}
	}
	return out, nil
}

// checkpointProbes reads each key's checkpoint from a copy of the
// drained data dir, apart from the server, and returns one probe query
// per key answered by the checkpointed float64 model: after the restart
// the server must serve exactly these versions.
func checkpointProbes(in *writeInputs, dataDir string, keys []serve.ModelKey) ([]query, error) {
	cp := dataDir + "-copy"
	defer os.RemoveAll(cp)
	if err := copyDir(dataDir, cp); err != nil {
		return nil, err
	}
	var probes []query
	for i := 0; i < writeShards; i++ {
		st, err := store.Open(filepath.Join(cp, fmt.Sprintf("shard-%d", i)), store.Options{Fsync: store.FsyncNever})
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			if in.ring.Owner(k.Job, k.Env) != i {
				continue
			}
			ck, ok, err := st.LoadCheckpoint(k.Job, k.Env)
			if err != nil || !ok {
				st.Close()
				return nil, fmt.Errorf("checkpoint of %s: found=%v err=%v", k, ok, err)
			}
			q := in.queries[0]
			for _, cand := range in.queries {
				if cand.key == k {
					q = cand
					break
				}
			}
			ref, err := ck.Model.Predict(q.q.ScaleOut, q.q.Essential, q.q.Optional)
			if err != nil {
				st.Close()
				return nil, err
			}
			q.ref = ref
			probes = append(probes, q)
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	return probes, nil
}
