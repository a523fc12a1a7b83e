package dispatch

import (
	"context"
	"fmt"
	"math"

	"github.com/toltiers/toltiers/internal/costmodel"
	"github.com/toltiers/toltiers/internal/service"
)

// Response is one backend invocation's answer with its accounting. Err
// is the task error of the result against ground truth (WER, 0/1 top-1)
// when the backend can grade itself — a replay backend reads it from the
// profile matrix, a live backend grades through the service evaluator —
// and NaN when unknown; telemetry only folds graded values.
type Response struct {
	Result service.Result
	// Err is the result's task error, or NaN when ungraded.
	Err float64
	// InvCost is the consumer-side price of this invocation.
	InvCost float64
	// IaaSCost is the provider-side node-time cost of this invocation
	// (before any early-termination credit, which is applied by the
	// dispatcher when it cancels a hedged secondary).
	IaaSCost float64
}

// Backend is one live invocable deployment of a service version — the
// unit the dispatcher routes tier policies over. Implementations must be
// safe for concurrent use; the dispatcher bounds concurrency per backend
// with its own limiters.
type Backend interface {
	// Name returns the backend's stable identifier.
	Name() string
	// Invoke processes one request. It should honor ctx cancellation
	// where it can; replay backends return immediately.
	Invoke(ctx context.Context, req *service.Request) (Response, error)
	// Plan returns the backend's price plan.
	Plan() costmodel.Plan
}

// ServiceBackend adapts a live service.Version into a Backend, grading
// results through the service evaluator so online telemetry carries true
// task error (the corpora are synthetic, so ground truth is available at
// serving time; against a real cloud API Err would be NaN).
type ServiceBackend struct {
	version service.Version
	eval    service.Evaluator
}

// NewServiceBackends wraps every version of svc, in service order, so
// backend index i is version i — the index space tier policies use.
func NewServiceBackends(svc *service.Service) []Backend {
	out := make([]Backend, len(svc.Versions))
	for i, v := range svc.Versions {
		out[i] = &ServiceBackend{version: v, eval: svc.Evaluator}
	}
	return out
}

// Name implements Backend.
func (b *ServiceBackend) Name() string { return b.version.Name() }

// Plan implements Backend.
func (b *ServiceBackend) Plan() costmodel.Plan { return b.version.Plan() }

// Invoke implements Backend: it runs the version and prices the
// invocation from its plan, exactly as ensemble.Policy.Execute does.
func (b *ServiceBackend) Invoke(ctx context.Context, req *service.Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	res := b.version.Process(req)
	plan := b.version.Plan()
	errv := math.NaN()
	if b.eval != nil {
		errv = b.eval.Error(req, res)
	}
	return Response{
		Result:   res,
		Err:      errv,
		InvCost:  plan.InvocationCost(),
		IaaSCost: plan.IaaSCost(res.Latency),
	}, nil
}

// semaphore is a per-backend concurrency limiter.
type semaphore chan struct{}

func newSemaphore(n int) semaphore {
	if n <= 0 {
		return nil // unlimited
	}
	return make(semaphore, n)
}

// acquire blocks until a slot frees or ctx is done.
func (s semaphore) acquire(ctx context.Context) error {
	if s == nil {
		return nil
	}
	select {
	case s <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("dispatch: backend limiter: %w", ctx.Err())
	}
}

// release frees a slot and reports whether the slot was handed straight
// on. A receive from a full channel with an acquirer parked on it moves
// that acquirer's value into the buffer and readies it, so the buffer
// is still full when the receive returns; a free slot leaves it short.
// (An acquirer on another P that takes the slot in the same instant
// reads the same, and costs the caller at most a needless yield.)
func (s semaphore) release() (handedOff bool) {
	if s == nil {
		return false
	}
	<-s
	return len(s) == cap(s)
}
