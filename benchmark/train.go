package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// noiseSigma is the simulator's default run-to-run noise: runtimes are
// the ground-truth curve times exp(N(0, σ²)).
const noiseSigma = 0.05

// fineTunedMREBound is the largest mean relative error a job's fine-tuned
// models may show on the held-out scale-outs that lie inside their
// fitted range (between the smallest and the largest training
// scale-out). README.md derives it from noiseSigma; it does not hold
// for extrapolation, which the zero-shot comparison covers instead.
const fineTunedMREBound = 6 * noiseSigma

// splitSizes are the training scale-out counts of a target's splits.
var splitSizes = []int{3, 4}

// trainSplit is one fit of a held-out target context: the runs the
// clone is fine-tuned on, and the target's other scale-outs to predict.
type trainSplit struct {
	train   []core.Sample
	heldOut []core.Query
	truth   []float64 // mean observed runtime per held-out query
	inside  []bool    // per held-out query: inside the training scale-out range
	zeroMRE float64   // the pre-trained model's error before fine-tuning
}

// trainJob is one job's general model, pre-trained on every context of
// the job except its held-out targets.
type trainJob struct {
	job    string
	model  *core.Model
	splits []trainSplit
}

// trainConfig is the cross-context model: fixed pre-training epochs, and
// fine-tunes that run exactly finetuneEpochs (no MAE target, no
// patience), so every fit does the same work.
func trainConfig(e *env, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.PretrainEpochs = e.sizes.pretrainEpochs
	cfg.FinetuneTargetMAE = 0
	cfg.FinetunePatience = 0
	cfg.Seed = seed
	return cfg
}

// pretrainTimes are the per-job pre-training times of a set-up in ms:
// wall clock, and the process CPU time the pre-training used.
type pretrainTimes struct{ wall, cpu []float64 }

// trainSetup simulates the C3O traces, holds out targets per job and
// pre-trains each job's general model on the rest.
func trainSetup(e *env) ([]*trainJob, pretrainTimes, error) {
	ds := dataset.GenerateC3O(dataset.SimConfig{Seed: e.seed, NoiseSigma: noiseSigma})
	rng := e.rng(2)
	var jobs []*trainJob
	var pretrain pretrainTimes
	for ji, job := range dataset.C3OJobs {
		ctxs := ds.Contexts(job)
		held := map[string]bool{}
		tj := &trainJob{job: job}
		for _, i := range rng.Perm(len(ctxs))[:e.sizes.targetsPerJob] {
			held[ctxs[i].ID] = true
			tj.splits = append(tj.splits, targetSplits(rng, ds.ForContext(ctxs[i].ID))...)
		}
		var corpus []dataset.Execution
		for _, x := range ds.ForJob(job) {
			if !held[x.Context.ID] {
				corpus = append(corpus, x)
			}
		}
		m, err := core.New(trainConfig(e, e.seed*31+int64(ji)))
		if err != nil {
			return nil, pretrainTimes{}, err
		}
		t0, c0 := time.Now(), selfCPU()
		if _, err := m.Pretrain(core.SamplesFromExecutions(corpus)); err != nil {
			return nil, pretrainTimes{}, fmt.Errorf("pre-training %s: %w", job, err)
		}
		pretrain.wall = append(pretrain.wall, ms(time.Since(t0)))
		pretrain.cpu = append(pretrain.cpu, ms(selfCPU()-c0))
		tj.model = m
		for i := range tj.splits {
			sp := &tj.splits[i]
			pred, err := m.PredictBatch(sp.heldOut)
			if err != nil {
				return nil, pretrainTimes{}, err
			}
			sp.zeroMRE = meanRelErr(pred, sp.truth)
		}
		jobs = append(jobs, tj)
	}
	return jobs, pretrain, nil
}

// targetSplits builds a held-out target's splits: a few training
// scale-outs drawn from the seeded rng, with every run of the target at
// each; the truth of a held-out scale-out is the mean of its runs.
func targetSplits(rng *rand.Rand, execs []dataset.Execution) []trainSplit {
	truth := dataset.MeanRuntimeByScaleOut(execs)
	samples := map[int][]core.Sample{}
	for _, s := range core.SamplesFromExecutions(execs) {
		samples[s.ScaleOut] = append(samples[s.ScaleOut], s)
	}
	var splits []trainSplit
	scaleOuts := dataset.ScaleOuts(execs)
	for _, k := range splitSizes {
		pick := map[int]bool{}
		var sp trainSplit
		lo, hi := math.MaxInt, math.MinInt
		for _, i := range rng.Perm(len(scaleOuts))[:k] {
			x := scaleOuts[i]
			pick[x] = true
			lo, hi = min(lo, x), max(hi, x)
			sp.train = append(sp.train, samples[x]...)
		}
		for _, x := range scaleOuts {
			if pick[x] {
				continue
			}
			s := samples[x][0]
			sp.heldOut = append(sp.heldOut, core.Query{ScaleOut: x, Essential: s.Essential, Optional: s.Optional})
			sp.truth = append(sp.truth, truth[x])
			sp.inside = append(sp.inside, lo < x && x < hi)
		}
		splits = append(splits, sp)
	}
	return splits
}

func meanRelErr(pred, truth []float64) float64 {
	var s float64
	for i := range pred {
		s += relErr(pred[i], truth[i])
	}
	return s / float64(len(pred))
}

func relErr(pred, truth float64) float64 { return math.Abs(pred-truth) / truth }

// fitResult is one target fit: the fine-tuned clone and its timings.
type fitResult struct {
	model   *core.Model
	fit     time.Duration // Clone + Finetune, wall clock
	fitCPU  time.Duration // the process CPU time the fit used
	predict latencies     // the held-out scale-outs, one batch per call
	mre     float64
	inside  []float64 // relative errors at the held-out scale-outs inside the fitted range
}

// Timed repetitions per fit of the two short operations, so their
// medians rest on many samples rather than one per fit.
const (
	predictReps = 16
	reloadReps  = 4
)

// fitTarget clones the general model, fine-tunes the clone on the
// split's points and predicts the target's other scale-outs.
func fitTarget(e *env, general *core.Model, sp *trainSplit) (*fitResult, error) {
	t0, c0 := time.Now(), selfCPU()
	clone, err := general.Clone()
	if err != nil {
		return nil, err
	}
	if _, err := clone.Finetune(sp.train, core.FinetuneOptions{MaxEpochs: e.sizes.finetuneEpochs}); err != nil {
		return nil, err
	}
	fit, fitCPU := time.Since(t0), selfCPU()-c0
	r := &fitResult{model: clone, fit: fit, fitCPU: fitCPU}
	for i := 0; i < predictReps; i++ {
		t1 := time.Now()
		pred, err := clone.PredictBatch(sp.heldOut)
		if err != nil {
			return nil, err
		}
		r.predict.add(time.Since(t1))
		r.mre = meanRelErr(pred, sp.truth)
		r.inside = r.inside[:0]
		for j, in := range sp.inside {
			if in {
				r.inside = append(r.inside, relErr(pred[j], sp.truth[j]))
			}
		}
	}
	return r, nil
}

// reload serializes an adapted model and loads it back into its float32
// serving form, as a restarted server does with a checkpoint, timing
// until its first answer. The answer must match the model it came from.
func reload(m *core.Model, q core.Query, o *outcome) (time.Duration, error) {
	want, err := m.Predict(q.ScaleOut, q.Essential, q.Optional)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return 0, err
	}
	back, err := core.Load(&buf)
	if err != nil {
		return 0, err
	}
	im, err := back.Quantize()
	if err != nil {
		return 0, err
	}
	got, err := im.Predict(q.ScaleOut, q.Essential, q.Optional)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if math.Abs(got-want) > quantTol(want) {
		o.wrong("reloaded %s model answers %.6g, saved model %.6g", "adapted", got, want)
	}
	return d, nil
}

func runTrainCrossContext(e *env) (*outcome, error) {
	o := newOutcome()
	var jobs []*trainJob
	var setups []float64
	var pretrain pretrainTimes
	for i := 0; i < e.sizes.setups; i++ {
		t0 := time.Now()
		var err error
		var pt pretrainTimes
		jobs, pt, err = trainSetup(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		pretrain.wall = append(pretrain.wall, pt.wall...)
		pretrain.cpu = append(pretrain.cpu, pt.cpu...)
	}
	var fits, fitsCPU, predicts, reloads latencies
	mre := map[string][]float64{}
	zero := map[string][]float64{}
	inside := map[string][]float64{}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	deadline := time.Now().Add(e.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, tj := range jobs {
			for i := range tj.splits {
				sp := &tj.splits[i]
				o.attempted++
				r, err := fitTarget(e, tj.model, sp)
				if err != nil {
					o.failure("%s: %v", tj.job, err)
					continue
				}
				fits.add(r.fit)
				fitsCPU.add(r.fitCPU)
				predicts = merge(predicts, r.predict)
				mre[tj.job] = append(mre[tj.job], r.mre)
				zero[tj.job] = append(zero[tj.job], sp.zeroMRE)
				inside[tj.job] = append(inside[tj.job], r.inside...)
				for k := 0; k < reloadReps; k++ {
					d, err := reload(r.model, sp.heldOut[0], o)
					if err != nil {
						o.failure("%s reload: %v", tj.job, err)
						break
					}
					reloads.add(d)
				}
			}
		}
	}
	cpu := selfCPU() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	o.counters["runtime.gc_per_kreq"] = float64(ms1.NumGC-ms0.NumGC) / (float64(len(fits)) / 1000)
	o.counters["runtime.heap_mb"] = float64(ms1.HeapAlloc) / (1 << 20)
	rss, err := procPeakRSSMB(0)
	if err != nil {
		return nil, err
	}
	checkQuality(mre, zero, inside, o)

	m := o.metrics
	m["setup_s"] = median(setups)
	m["max_rss_mb"] = rss
	m["cpu_us_per_op"] = float64(cpu) / float64(time.Microsecond) / float64(len(fits))
	m["op_p50_us"] = median(fitsCPU)
	m["op2_p50_us"] = median(predicts)
	m["heavy_ms"] = median(pretrain.cpu)
	m["restart_ms"] = median(reloads) / 1000
	o.name("setup_s", m["setup_s"], "s")
	o.name("pretrain_s", median(pretrain.wall)/1000, "s")
	o.name("pretrain_cpu_s", median(pretrain.cpu)/1000, "s")
	o.name("finetune_ms", median(fits)/1000, "ms")
	o.name("finetune_cpu_ms", median(fitsCPU)/1000, "ms")
	o.name("finetune_tail_ms", tail(fits)/1000, "ms")
	o.name("predict_p50_us", m["op2_p50_us"], "us")
	o.name("reload_us", median(reloads), "us")
	o.name("max_rss_mb", rss, "MB")
	o.name("fits", float64(len(fits)), "")
	for _, j := range dataset.C3OJobs {
		o.name("mre_"+j, mean(mre[j]), "")
		o.name("mre_inside_"+j, mean(inside[j]), "")
		o.name("zero_shot_mre_"+j, mean(zero[j]), "")
	}
	return o, nil
}

// checkQuality holds the model-quality checks. For every job, the
// fine-tuned models' mean relative error at the held-out scale-outs
// inside their fitted range (inside) is below fineTunedMREBound. Over all
// jobs and all held-out scale-outs (mre), the fine-tuned error is below
// the zero-shot pre-trained models' (zero). Extrapolation beyond the
// fitted range is held only to the zero-shot comparison: a fit on three
// adjacent large scale-outs can miss a small one by a factor of three
// (README.md). The comparison is pooled over jobs because a job whose
// general model already predicts a held-out context near the noise floor
// (PageRank, with 47 contexts) is not reliably improved by fine-tuning on
// three or four scale-outs; README.md records how often.
func checkQuality(mre, zero, inside map[string][]float64, o *outcome) {
	var ft, zs []float64
	for _, j := range dataset.C3OJobs {
		ft = append(ft, mean(mre[j]))
		zs = append(zs, mean(zero[j]))
		if len(inside[j]) == 0 {
			continue // no fit held out a scale-out inside its range
		}
		if in := mean(inside[j]); !(in < fineTunedMREBound) {
			o.wrong("%s: fine-tuned MRE %.4f inside the fitted range not below the bound %.4f", j, in, fineTunedMREBound)
		}
	}
	if !(mean(ft) < mean(zs)) {
		o.wrong("fine-tuned MRE %.4f not below zero-shot MRE %.4f over all jobs", mean(ft), mean(zs))
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
