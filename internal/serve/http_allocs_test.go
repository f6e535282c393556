package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"testing"

	"repro/internal/loadctl"
	"repro/internal/obs"
)

// handlerCachedPredictAllocs bounds the heap allocations of one cached
// POST /v1/predict through Service.Handler, from request body to
// response bytes. It is the count measured with go1.24 on amd64; the
// same call took 39 while bodies were decoded by encoding/json.
const handlerCachedPredictAllocs = 14

// replayBody serves the same bytes to every request without
// allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that drops the body, so
// the count is the handler's own.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestHandlerCachedPredictAllocs pins the allocations of a cached
// predict through the full single-node handler, with load control and
// observability attached the way bellamy serve attaches them: rate
// limiter, admission gate, deadline cap, metrics registry with runtime
// series, and the tracer at its default sampling.
func TestHandlerCachedPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so pooled paths allocate there by design")
	}
	svc := NewService((&countingLoader{t: t}).load, Options{})
	svc.AttachLoadControl(LoadControl{
		Limiter:     loadctl.NewLimiter(loadctl.LimiterConfig{Rate: loadctl.DefaultRate}),
		Gate:        loadctl.NewGate(loadctl.GateConfig{MaxQueue: loadctl.DefaultMaxQueue, MaxWait: loadctl.DefaultMaxWait}),
		MaxDeadline: DefaultMaxDeadline,
	})
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	tracer := obs.NewTracer(obs.TracerOptions{})
	tracer.RegisterMetrics(reg, nil)
	svc.AttachObs(&Observability{Metrics: reg, Tracer: tracer, Log: slog.New(slog.NewTextHandler(io.Discard, nil))}, nil)
	h := svc.Handler()

	body, err := json.Marshal(wireRequest(4, 10000))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.RemoteAddr = "127.0.0.1:1"
	rb := &replayBody{}
	req.Body = rb
	w := &discardWriter{h: http.Header{}}
	call := func() {
		rb.Reset(body)
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("predict answered %d", w.status)
		}
	}
	call() // the cold miss that fills the result cache
	allocs := testing.AllocsPerRun(500, call)
	t.Logf("cached POST /v1/predict: %.1f allocs", allocs)
	if allocs > handlerCachedPredictAllocs {
		t.Fatalf("cached POST /v1/predict allocs = %.1f, want <= %d", allocs, handlerCachedPredictAllocs)
	}
}
