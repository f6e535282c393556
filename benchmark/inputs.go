package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/serve"
)

// servedKeys are the eight (job, env) models both serving workloads
// hold resident: the five simulated C3O jobs and the three Bell jobs.
func servedKeys() []serve.ModelKey {
	var keys []serve.ModelKey
	for _, j := range dataset.C3OJobs {
		keys = append(keys, serve.ModelKey{Job: j, Env: string(dataset.EnvC3O)})
	}
	for _, j := range dataset.BellJobs {
		keys = append(keys, serve.ModelKey{Job: j, Env: string(dataset.EnvBell)})
	}
	return keys
}

// simulation is the seeded simulator output one workload draws from.
type simulation struct {
	c3o, bell *dataset.Dataset
}

func simulate(seed int64) simulation {
	return simulation{
		c3o:  dataset.GenerateC3O(dataset.SimConfig{Seed: seed}),
		bell: dataset.GenerateBell(dataset.SimConfig{Seed: seed}),
	}
}

func (s simulation) env(env string) *dataset.Dataset {
	if env == string(dataset.EnvBell) {
		return s.bell
	}
	return s.c3o
}

// servedConfig is the model configuration of the served models. The
// fine-tune MAE target is zero so an online fine-tune never stops on
// it: how long a drain fine-tunes depends on the observation window, not
// on whether a window happens to reach an absolute error in seconds.
func servedConfig(epochs int, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.PretrainEpochs = epochs
	cfg.FinetuneTargetMAE = 0
	cfg.Seed = seed
	return cfg
}

// trainServedModels pre-trains one model per served key on its
// environment's executions of the job and saves it as <job>_<env>.model
// under dir, where `bellamy serve -models dir` finds it.
func trainServedModels(dir string, sim simulation, seed int64, epochs int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, k := range servedKeys() {
		samples := core.SamplesFromExecutions(sim.env(k.Env).ForJob(k.Job))
		m, err := core.New(servedConfig(epochs, seed*101+int64(i)))
		if err != nil {
			return err
		}
		if _, err := m.Pretrain(samples); err != nil {
			return fmt.Errorf("pre-training %s: %w", k, err)
		}
		if err := m.SaveFile(filepath.Join(dir, serve.ModelFileName(k))); err != nil {
			return err
		}
	}
	return nil
}

// loadReferences reads every served model file back with core.LoadFile:
// the float64 models the serving oracle compares the float32 server
// against.
func loadReferences(dir string) (map[serve.ModelKey]*core.Model, error) {
	refs := map[serve.ModelKey]*core.Model{}
	for _, k := range servedKeys() {
		m, err := core.LoadFile(filepath.Join(dir, serve.ModelFileName(k)))
		if err != nil {
			return nil, err
		}
		refs[k] = m
	}
	return refs, nil
}

// contextProps returns a context's properties with the dataset size
// replaced, in wire and model form. Varying the size makes new, distinct
// queries of the same context.
func contextProps(c *dataset.Context, sizeMB int) (ess, opt []encoding.Property) {
	ess = c.EssentialProps()
	ess[0].Value = strconv.Itoa(sizeMB)
	return ess, c.OptionalProps()
}

func wireProps(ps []encoding.Property) []api.Property {
	out := make([]api.Property, len(ps))
	for i, p := range ps {
		out[i] = api.Property{Name: p.Name, Value: p.Value}
	}
	return out
}

// query is one prediction query with its wire body and the float64
// reference answer.
type query struct {
	key  serve.ModelKey
	q    core.Query
	body []byte
	ref  float64
}

func newQuery(k serve.ModelKey, ess, opt []encoding.Property, scaleOut int) query {
	req := api.PredictRequest{
		Job: k.Job, Env: k.Env, ScaleOut: scaleOut,
		Essential: wireProps(ess), Optional: wireProps(opt),
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return query{key: k, q: core.Query{ScaleOut: scaleOut, Essential: ess, Optional: opt}, body: body}
}

// population draws n distinct queries spread evenly over the served
// keys: a context of the key's job, a dataset size near the context's
// own, and a scale-out in 1..64.
func population(rng *rand.Rand, sim simulation, n int) []query {
	keys := servedKeys()
	seen := map[string]bool{}
	var out []query
	for i := 0; len(out) < n; i++ {
		k := keys[i%len(keys)]
		ctxs := sim.env(k.Env).Contexts(k.Job)
		c := ctxs[rng.Intn(len(ctxs))]
		size := c.DatasetSizeMB + 250*rng.Intn(64)
		so := 1 + rng.Intn(64)
		id := fmt.Sprintf("%s|%s|%d|%d", k, c.ID, size, so)
		if seen[id] {
			continue
		}
		seen[id] = true
		ess, opt := contextProps(c, size)
		out = append(out, newQuery(k, ess, opt, so))
	}
	return out
}

// fillReferences computes every query's float64 reference answer, one
// batched forward pass per key.
func fillReferences(qs []query, refs map[serve.ModelKey]*core.Model) error {
	byKey := map[serve.ModelKey][]int{}
	for i, q := range qs {
		byKey[q.key] = append(byKey[q.key], i)
	}
	for k, idx := range byKey {
		batch := make([]core.Query, len(idx))
		for j, i := range idx {
			batch[j] = qs[i].q
		}
		out, err := refs[k].PredictBatch(batch)
		if err != nil {
			return fmt.Errorf("reference predictions for %s: %w", k, err)
		}
		for j, i := range idx {
			qs[i].ref = out[j]
		}
	}
	return nil
}
