package main

import (
	"fmt"
	"math"

	"repro/internal/api"
)

// quantTol is the float32-serving bound TestQuantizedPredictionAccuracy
// states: a served prediction may differ from the float64 model by at
// most 1e-3·(1+|ref|).
func quantTol(ref float64) float64 { return 1e-3 * (1 + math.Abs(ref)) }

// checkPredict compares one served prediction with its float64
// reference.
func checkPredict(got api.PredictResponse, q query) error {
	if got.Error != nil {
		return fmt.Errorf("%s scale-out %d: error %s", q.key, q.q.ScaleOut, got.Error.Code)
	}
	if d := math.Abs(got.RuntimeSec - q.ref); !(d <= quantTol(q.ref)) {
		return fmt.Errorf("%s scale-out %d: served %.6g, reference %.6g", q.key, q.q.ScaleOut, got.RuntimeSec, q.ref)
	}
	return nil
}

// checkBatch checks every item of a batch answer, in request order.
func checkBatch(got api.BatchResponse, qs []query) error {
	if len(got.Responses) != len(qs) {
		return fmt.Errorf("batch: %d answers for %d requests", len(got.Responses), len(qs))
	}
	for i := range qs {
		if err := checkPredict(got.Responses[i], qs[i]); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}

// allocQuery is one allocation request with the float64 reference
// prediction of every candidate scale-out.
type allocQuery struct {
	query
	req api.AllocateRequest
	ref []float64 // per candidate, in ascending scale-out order
}

// nonIncreasingFit is the least-squares non-increasing fit of v (pool
// adjacent violators). It is the reference the served smoothed curve is
// compared against: the fit is 1-Lipschitz in the max norm, so curves
// within a tolerance of each other have fits within that tolerance.
func nonIncreasingFit(v []float64) []float64 {
	type block struct {
		sum float64
		n   int
	}
	var bs []block
	for _, x := range v {
		bs = append(bs, block{x, 1})
		for len(bs) > 1 {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			if a.sum/float64(a.n) >= b.sum/float64(b.n) {
				break
			}
			bs = append(bs[:len(bs)-2], block{a.sum + b.sum, a.n + b.n})
		}
	}
	out := make([]float64, 0, len(v))
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			out = append(out, b.sum/float64(b.n))
		}
	}
	return out
}

// checkAllocation checks the three properties an allocation answer must
// have: its curve is non-increasing and matches the reference
// predictions; the chosen scale-out is the cheapest candidate whose
// smoothed runtime meets deadline·(1−margin); and the answer is flagged
// infeasible exactly when no candidate meets it.
func checkAllocation(got api.AllocateResponse, a allocQuery) error {
	if got.Error != nil {
		return fmt.Errorf("allocate %s: error %s", a.key, got.Error.Code)
	}
	if len(got.Curve) != len(a.ref) {
		return fmt.Errorf("allocate %s: %d curve points for %d candidates", a.key, len(got.Curve), len(a.ref))
	}
	maxTol := 0.0
	for _, r := range a.ref {
		maxTol = math.Max(maxTol, quantTol(r))
	}
	fit := nonIncreasingFit(a.ref)
	eff := a.req.DeadlineSec * (1 - a.req.SafetyMargin)
	cheapest, fastest := -1, 0
	var minCost float64
	for i, p := range got.Curve {
		if want := a.req.MinScaleOut + i; p.ScaleOut != want {
			return fmt.Errorf("allocate %s: curve point %d has scale-out %d, want %d", a.key, i, p.ScaleOut, want)
		}
		if d := math.Abs(p.PredictedSec - a.ref[i]); !(d <= quantTol(a.ref[i])) {
			return fmt.Errorf("allocate %s: scale-out %d predicted %.6g, reference %.6g", a.key, p.ScaleOut, p.PredictedSec, a.ref[i])
		}
		if d := math.Abs(p.SmoothedSec - fit[i]); !(d <= maxTol) {
			return fmt.Errorf("allocate %s: scale-out %d smoothed %.6g, reference fit %.6g", a.key, p.ScaleOut, p.SmoothedSec, fit[i])
		}
		if i > 0 && p.SmoothedSec > got.Curve[i-1].SmoothedSec {
			return fmt.Errorf("allocate %s: smoothed curve rises at scale-out %d", a.key, p.ScaleOut)
		}
		meets := p.SmoothedSec <= eff
		if p.MeetsSLO != meets {
			return fmt.Errorf("allocate %s: scale-out %d meets_slo=%v, smoothed %.6g vs limit %.6g", a.key, p.ScaleOut, p.MeetsSLO, p.SmoothedSec, eff)
		}
		cost := float64(p.ScaleOut) * p.SmoothedSec / 3600 * a.req.CostPerNodeHour
		if meets && (cheapest < 0 || cost < minCost) {
			cheapest, minCost = i, cost
		}
		if p.SmoothedSec < got.Curve[fastest].SmoothedSec {
			fastest = i
		}
	}
	if got.Feasible != (cheapest >= 0) {
		return fmt.Errorf("allocate %s: feasible=%v, but whether some candidate meets the limit is %v", a.key, got.Feasible, cheapest >= 0)
	}
	want := fastest
	if cheapest >= 0 {
		want = cheapest
	}
	if got.ScaleOut != got.Curve[want].ScaleOut {
		return fmt.Errorf("allocate %s: chose scale-out %d, want %d (feasible=%v)", a.key, got.ScaleOut, got.Curve[want].ScaleOut, got.Feasible)
	}
	return nil
}
