package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

var testKey = serve.ModelKey{Job: "grep", Env: "c3o"}

func testQuery(ref float64) query {
	return query{key: testKey, q: core.Query{ScaleOut: 4}, ref: ref}
}

func TestCheckPredictRejectsPerturbedPrediction(t *testing.T) {
	q := testQuery(120)
	if err := checkPredict(api.PredictResponse{RuntimeSec: 120.05}, q); err != nil {
		t.Fatalf("prediction within the quantization bound rejected: %v", err)
	}
	for _, got := range []api.PredictResponse{
		{RuntimeSec: 120 * 1.01},
		{RuntimeSec: math.NaN()},
		{Error: &api.Error{Code: api.CodeInternal}},
	} {
		if checkPredict(got, q) == nil {
			t.Errorf("wrong answer %+v accepted for reference 120", got)
		}
	}
	batch := []query{testQuery(10), testQuery(20)}
	ok := api.BatchResponse{Responses: []api.PredictResponse{{RuntimeSec: 10}, {RuntimeSec: 20}}}
	if err := checkBatch(ok, batch); err != nil {
		t.Fatalf("correct batch rejected: %v", err)
	}
	ok.Responses[1].RuntimeSec = 21
	if checkBatch(ok, batch) == nil {
		t.Error("batch with a perturbed item accepted")
	}
	if checkBatch(api.BatchResponse{Responses: ok.Responses[:1]}, batch) == nil {
		t.Error("batch with a missing item accepted")
	}
}

func TestNonIncreasingFit(t *testing.T) {
	got := nonIncreasingFit([]float64{10, 8, 9, 5, 5, 6})
	want := []float64{10, 8.5, 8.5, 5.333333333333333, 5.333333333333333, 5.333333333333333}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("fit = %v, want %v", got, want)
		}
	}
}

// servedAllocation answers a against its own reference the way a
// correct server does.
func servedAllocation(a allocQuery) api.AllocateResponse {
	fit := nonIncreasingFit(a.ref)
	eff := a.req.DeadlineSec * (1 - a.req.SafetyMargin)
	resp := api.AllocateResponse{}
	chosen, fastest := -1, 0
	for i := range a.ref {
		p := api.CurvePoint{ScaleOut: a.req.MinScaleOut + i, PredictedSec: a.ref[i], SmoothedSec: fit[i]}
		p.Cost = float64(p.ScaleOut) * p.SmoothedSec / 3600 * a.req.CostPerNodeHour
		p.MeetsSLO = p.SmoothedSec <= eff
		resp.Curve = append(resp.Curve, p)
		if p.MeetsSLO && (chosen < 0 || p.Cost < resp.Curve[chosen].Cost) {
			chosen = i
		}
		if p.SmoothedSec < resp.Curve[fastest].SmoothedSec {
			fastest = i
		}
	}
	resp.Feasible = chosen >= 0
	if chosen < 0 {
		chosen = fastest
	}
	resp.ScaleOut = resp.Curve[chosen].ScaleOut
	return resp
}

func TestCheckAllocationProperties(t *testing.T) {
	ref := []float64{100, 60, 45, 47, 38, 36, 35, 35.5}
	a := allocQuery{query: testQuery(0), ref: ref, req: api.AllocateRequest{
		MinScaleOut: 1, MaxScaleOut: len(ref), DeadlineSec: 50, CostPerNodeHour: 1, SafetyMargin: 0.1}}
	if err := checkAllocation(servedAllocation(a), a); err != nil {
		t.Fatalf("correct allocation rejected: %v", err)
	}
	infeasible := a
	infeasible.req.DeadlineSec = 30
	if err := checkAllocation(servedAllocation(infeasible), infeasible); err != nil {
		t.Fatalf("correct infeasible allocation rejected: %v", err)
	}

	wrong := map[string]func(*api.AllocateResponse){
		"perturbed prediction": func(r *api.AllocateResponse) { r.Curve[2].PredictedSec *= 1.05 },
		"rising smoothed curve": func(r *api.AllocateResponse) {
			r.Curve[3].SmoothedSec, r.Curve[4].SmoothedSec = r.Curve[4].SmoothedSec, r.Curve[3].SmoothedSec
		},
		"not the cheapest":    func(r *api.AllocateResponse) { r.ScaleOut++ },
		"wrong feasible flag": func(r *api.AllocateResponse) { r.Feasible = false },
		"wrong meets_slo":     func(r *api.AllocateResponse) { r.Curve[0].MeetsSLO = true },
		"short curve":         func(r *api.AllocateResponse) { r.Curve = r.Curve[:3] },
	}
	for name, perturb := range wrong {
		resp := servedAllocation(a)
		perturb(&resp)
		if checkAllocation(resp, a) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	resp := servedAllocation(infeasible)
	resp.Feasible = true
	if checkAllocation(resp, infeasible) == nil {
		t.Error("infeasible sweep flagged feasible accepted")
	}
}

func TestDurabilityAndVersionChecks(t *testing.T) {
	keys := servedKeys()
	before := map[serve.ModelKey]uint64{}
	d := drainReport{swapped: map[serve.ModelKey]uint64{}, finetuned: len(keys)}
	for _, k := range keys {
		before[k] = 1
		d.swapped[k] = 2
	}
	if errs := checkDrain(keys, before, d); len(errs) != 0 {
		t.Fatalf("correct drain rejected: %v", errs)
	}
	if errs := checkRestart(keys, d, d.swapped, 1000+40, 1000, 40, 0); len(errs) != 0 {
		t.Fatalf("correct restart rejected: %v", errs)
	}
	if errs := checkRestart(keys, d, d.swapped, 1000+41, 1000, 40, 1); len(errs) != 0 {
		t.Fatalf("observe durable despite a transport error rejected: %v", errs)
	}

	if len(checkRestart(keys, d, d.swapped, 1000+39, 1000, 40, 0)) == 0 {
		t.Error("dropped acknowledged observation accepted")
	}
	if len(checkRestart(keys, d, d.swapped, 1000+41, 1000, 40, 0)) == 0 {
		t.Error("observation replayed beyond those sent accepted")
	}
	stale := map[serve.ModelKey]uint64{}
	for k, v := range d.swapped {
		stale[k] = v
	}
	stale[keys[3]] = 1
	if len(checkRestart(keys, d, stale, 1040, 1000, 40, 0)) == 0 {
		t.Error("version moved back by the restart accepted")
	}
	notMoved := drainReport{swapped: map[serve.ModelKey]uint64{}, finetuned: len(keys)}
	for k, v := range d.swapped {
		notMoved.swapped[k] = v
	}
	notMoved.swapped[keys[0]] = 1
	if len(checkDrain(keys, before, notMoved)) == 0 {
		t.Error("version that did not move across the drain accepted")
	}
	missing := drainReport{swapped: d.swapped, finetuned: len(keys) - 1}
	if len(checkDrain(keys, before, missing)) == 0 {
		t.Error("drain missing a fine-tune accepted")
	}
}

func TestParseDrain(t *testing.T) {
	d := parseDrain([]string{
		`time=x level=INFO msg="lifecycle: model hot-swapped" shard=1 job=grep env=c3o version=2`,
		`time=x level=INFO msg="drain: digested pending observations" shard=1 model_versions=3`,
		`time=x level=INFO msg="drain: digested pending observations" shard=0 model_versions=5`,
	})
	if d.finetuned != 8 || d.swapped[testKey] != 2 || len(d.swapped) != 1 {
		t.Fatalf("parseDrain = %+v", d)
	}
}

func TestCheckQualityRejectsWorseFinetune(t *testing.T) {
	good, zero, inside := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, j := range dataset.C3OJobs {
		good[j] = []float64{0.08, 0.1}
		zero[j] = []float64{0.3, 0.2}
		inside[j] = []float64{0.05, 0.07}
	}
	o := newOutcome()
	checkQuality(good, zero, inside, o)
	if o.bad != 0 {
		t.Fatalf("good fine-tunes rejected: %v", o.badMsgs)
	}
	worse := map[string][]float64{}
	for j := range good {
		worse[j] = []float64{0.29, 0.24}
	}
	o = newOutcome()
	checkQuality(worse, zero, inside, o)
	if o.bad == 0 {
		t.Error("fine-tunes no better than zero-shot accepted")
	}
	loose := map[string][]float64{}
	for j := range inside {
		loose[j] = inside[j]
	}
	loose["sgd"] = []float64{0.5, 0.5}
	o = newOutcome()
	checkQuality(good, zero, loose, o)
	if o.bad == 0 {
		t.Error("fine-tune above the error bound inside its fitted range accepted")
	}
	// A poor extrapolation alone is held only to the zero-shot comparison.
	far := map[string][]float64{}
	for j := range good {
		far[j] = good[j]
	}
	far["sgd"] = []float64{0.6, 0.1}
	zeroFar := map[string][]float64{}
	for j := range zero {
		zeroFar[j] = zero[j]
	}
	zeroFar["sgd"] = []float64{1.2, 0.4}
	o = newOutcome()
	checkQuality(far, zeroFar, inside, o)
	if o.bad != 0 {
		t.Errorf("extrapolation error that beats zero-shot rejected: %v", o.badMsgs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// buildBellamy builds the server the serving workloads drive.
func buildBellamy(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bellamy")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bellamy")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building bellamy: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsTiny runs every workload end to end at a tiny size and
// checks it answers correctly, fails nothing and measures every metric.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	bin := buildBellamy(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			e := &env{bellamy: bin, work: t.TempDir(), seed: 3, seconds: time.Second, sizes: tinySizes}
			o, err := runOnce(e, &wl)
			if err != nil {
				t.Fatal(err)
			}
			if o.bad != 0 || o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%d wrong, %d failed of %d: %v", o.bad, o.failed, o.attempted, o.badMsgs)
			}
			line, err := resultLine(o, false)
			if err != nil {
				t.Fatal(err)
			}
			for name := range e2eUnits {
				if !(o.metrics[name] > 0) {
					t.Errorf("%s = %v, want a positive measurement", name, o.metrics[name])
				}
			}
			if !strings.HasPrefix(line, `{"correct":true,`) {
				t.Errorf("result line %s", line)
			}
		})
	}
}

// TestLayerRunTiny runs the layer run once and checks it prints every
// per-layer metric.
func TestLayerRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real servers")
	}
	e := &env{bellamy: buildBellamy(t), work: t.TempDir(), seed: 4, seconds: time.Second, trace: true, sizes: tinySizes}
	o, err := runOnce(e, &workloads[2])
	if err != nil {
		t.Fatal(err)
	}
	line, err := resultLine(o, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layerMetrics {
		if !strings.Contains(line, `"`+l.name+`"`) {
			t.Errorf("layer run misses %s", l.name)
		}
		if strings.HasSuffix(l.name, "_us") || strings.HasSuffix(l.name, "_ns") || strings.HasSuffix(l.name, "_ms") {
			if !(o.metrics[l.name] > 0) {
				t.Errorf("%s = %v, want a positive timing", l.name, o.metrics[l.name])
			}
		}
	}
}
