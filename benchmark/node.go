package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// listener is one HTTP server of the node under test on a real
// 127.0.0.1:0 socket, in the generator's process.
type listener struct {
	srv     *Server
	handler http.Handler // what the socket serves: Instrument(srv) on a ttserver, srv on a ttworker
	hs      *http.Server
	addr    string
	served  chan struct{}
}

func listen(srv *Server, h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{srv: srv, handler: h, hs: &http.Server{Handler: h}, addr: ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // returns ErrServerClosed from close()
	}()
	return l, nil
}

func (l *listener) url() string { return "http://" + l.addr }

func (l *listener) close() {
	_ = l.hs.Close()
	<-l.served
	if l.srv != nil {
		closeNode(l.srv)
	}
}

// worker is one fleet worker assembled the way cmd/ttworker assembles
// itself: snapshot pull, NewWorkerFromSnapshot, membership agent.
type worker struct {
	*listener
	name      string
	agent     *Agent
	stopAgent context.CancelFunc
	agentDone chan struct{}
}

const fleetWorkers = 2

func startWorker(ctx context.Context, frontURL, name string) (*worker, error) {
	snap, err := pullSnapshot(ctx, frontURL)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", name, err)
	}
	srv, err := newWorker(snap)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", name, err)
	}
	l, err := listen(srv, srv)
	if err != nil {
		closeNode(srv)
		return nil, err
	}
	actx, cancel := context.WithCancel(ctx)
	w := &worker{listener: l, name: name, stopAgent: cancel, agentDone: make(chan struct{})}
	w.agent = newAgent(frontURL, name, l.url(), srv)
	go func() {
		defer close(w.agentDone)
		_ = agentRun(actx, w.agent) // returns the context's error on stop
	}()
	return w, nil
}

func (w *worker) close() {
	w.stopAgent()
	<-w.agentDone
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	agentDeregister(dctx, w.agent)
	cancel()
	w.listener.close()
}

// setupTimes are the stages of one set-up, for the per-layer rows.
type setupTimes struct {
	profile, rulegen, construct, bootstrap time.Duration
}

// node is one freshly assembled system under test.
type node struct {
	workload string
	svc      *Service
	reqs     []*Request
	matrix   *Matrix
	reg      *Registry
	front    *listener // the socket the generator talks to; nil on embedded_contended
	workers  []*worker
	emb      *embeddedParts
	stopEmb  func()
	started  time.Time
	times    setupTimes
}

// setUp builds corpus -> profile -> rules -> node (and workers). The
// caller completes the set-up with the first verified response.
func setUp(ctx context.Context, workload string, corpusN int) (n *node, err error) {
	n = &node{workload: workload, started: time.Now()}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	n.svc, n.reqs = newCorpus(corpusN)
	t := time.Now()
	n.matrix = buildProfile(n.svc, n.reqs)
	n.times.profile = time.Since(t)
	t = time.Now()
	tables, err := generateRules(ctx, n.matrix)
	if err != nil {
		return n, fmt.Errorf("rule generation: %w", err)
	}
	n.times.rulegen = time.Since(t)
	n.reg = newRegistry(n.svc, tables)

	if workload == wlEmbedded {
		n.emb = newEmbedded(n.reg, n.matrix)
		n.stopEmb = startDriftTicker(n.emb)
		return n, nil
	}
	t = time.Now()
	srv := newServingNode(n.reg, n.reqs, n.matrix, workload == wlFleetSingle)
	h := instrument(srv)
	n.times.construct = time.Since(t)
	if n.front, err = listen(srv, h); err != nil {
		closeNode(srv)
		return n, err
	}
	if workload != wlFleetSingle {
		return n, nil
	}
	t = time.Now()
	for i := 0; i < fleetWorkers; i++ {
		w, err := startWorker(ctx, n.front.url(), fmt.Sprintf("w%d", i))
		if err != nil {
			return n, err
		}
		n.workers = append(n.workers, w)
	}
	for deadline := time.Now().Add(10 * time.Second); liveWorkers(nodePool(srv)) < fleetWorkers; {
		if time.Now().After(deadline) {
			return n, errors.New("fleet workers did not register within 10 s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	n.times.bootstrap = time.Since(t)
	return n, nil
}

func (n *node) close() {
	for _, w := range n.workers {
		w.close()
	}
	if n.front != nil {
		n.front.close()
	}
	if n.stopEmb != nil {
		n.stopEmb()
	}
}

// startDriftTicker runs the drift check the server's own loop would run
// (2 s cadence) for the embedded stack.
func startDriftTicker(e *embeddedParts) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				driftCheck(e.mon, e.disp)
			}
		}
	}()
	return func() { close(quit); <-done }
}

// dispatchers lists every dispatcher of the node, for the ledger.
func (n *node) dispatchers() []*Dispatcher {
	if n.emb != nil {
		return []*Dispatcher{n.emb.disp}
	}
	ds := []*Dispatcher{nodeDispatcher(n.front.srv)}
	for _, w := range n.workers {
		ds = append(ds, nodeDispatcher(w.srv))
	}
	return ds
}

// servers lists the nodes whose layers answer requests: the workers on
// fleet_single (the front tier only proxies), the node itself otherwise.
func (n *node) servers() []*Server {
	if len(n.workers) == 0 {
		return []*Server{n.front.srv}
	}
	out := make([]*Server, len(n.workers))
	for i, w := range n.workers {
		out[i] = w.srv
	}
	return out
}

// allServers lists every server of the node: the one on the generator's
// socket and the fleet workers behind it.
func (n *node) allServers() []*Server {
	out := []*Server{n.front.srv}
	for _, w := range n.workers {
		out = append(out, w.srv)
	}
	return out
}
