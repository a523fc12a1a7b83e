package main

import (
	"flag"
	"strings"
	"sync"
	"testing"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/coalesce"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/tiers"
)

// The scenarios share one profiled corpus; every case boots its own node
// over it.
var corpus struct {
	once sync.Once
	m    *profile.Matrix
	reg  *tiers.Registry
	err  error
}

// scenario parses args as the command line would, boots the node they
// describe over the shared 300-request corpus, and runs it.
func scenario(t *testing.T, args string) (*ledger, error) {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("ttload", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(strings.Fields("-corpus 300 -duration 300ms -assert " + args)); err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	corpus.once.Do(func() { corpus.m, corpus.reg, corpus.err = profileCorpus(o.service, o.corpus, o.step) })
	if corpus.err != nil {
		t.Fatal(corpus.err)
	}
	node, err := bootNode(corpus.m, corpus.reg, o)
	if err != nil {
		t.Fatal(err)
	}
	return run(o, node)
}

// totals sums the ledger's tier rows.
func totals(l *ledger) (sent, graded, failed, shed int) {
	for _, s := range l.tiers {
		sent += s.sent
		graded += len(s.wallMS)
		failed += s.failures
		shed += s.shed
	}
	return
}

// TestScenarios drives the booted node through each scenario's flags and
// requires the -assert ledger to reconcile against the node's own read
// side, plus what makes each scenario the scenario it claims to be.
func TestScenarios(t *testing.T) {
	for _, tc := range []struct {
		name, args string
		check      func(t *testing.T, l *ledger)
	}{
		// Real-time backends hold dozens of dispatches in flight at once, a
		// crowd against -coalesce-max 8, so the ledger being reconciled saw
		// windows and not only bypasses.
		{"coalesce-tenants", "-coalesce -coalesce-max 8 -tenants 3 -rps 8000 -concurrency 64 -sleep-scale 1", func(t *testing.T, l *ledger) {
			sent, graded, _, _ := totals(l)
			if len(l.tenants) != 3 || graded != sent {
				t.Fatalf("%d tenant rows, %d of %d graded; want 3 named tenants and every arrival answered", len(l.tenants), graded, sent)
			}
			if cs := l.coalescer; cs == nil || cs.Windows == 0 || cs.Coalesced < int64(sent)/2 {
				t.Fatalf("coalescer counters %+v of %d sent; want most arrivals to ride a window", cs, sent)
			}
		}},
		// Offered load far above what 32 slots of real-time backends
		// serve: the node's admission layer must shed, and its own ledger
		// (GET /admission) must account for every arrival the generator
		// sent — sheds are answers, not failures.
		{"overload", "-overload -rps 8000 -concurrency 64 -sleep-scale 1", func(t *testing.T, l *ledger) {
			sent, _, failed, shed := totals(l)
			if shed == 0 || failed != 0 {
				t.Fatalf("shed %d, failed %d of %d; want sheds and no failures", shed, failed, sent)
			}
			a := l.admission
			if a == nil {
				t.Fatal("no GET /admission status was read")
			}
			if sheds := a.ShedRate + a.ShedCapacity + a.ShedDeadline; sheds != int64(shed) || a.Admitted+sheds != int64(sent) {
				t.Fatalf("GET /admission: admitted %d + shed %d, generator sent %d and counted %d sheds",
					a.Admitted, sheds, sent, shed)
			}
		}},
		{"coalesce-overload", "-coalesce -coalesce-max 8 -overload -rps 8000 -concurrency 64 -sleep-scale 1", func(t *testing.T, l *ledger) {
			if _, _, _, shed := totals(l); shed == 0 {
				t.Fatal("no window was shed at flush time")
			}
		}},
		{"chaos-errors", "-rps 4000 -chaos backend=0,kind=error,magnitude=0.3/backend=2,kind=error,magnitude=0.3/backend=6,kind=error,magnitude=0.3", func(t *testing.T, l *ledger) {
			sent, graded, failed, _ := totals(l)
			if failed == 0 || graded == 0 || graded+failed != sent {
				t.Fatalf("graded %d + failed %d of %d; want injected failures counted beside the answers", graded, failed, sent)
			}
		}},
		{"batch", "-batch 16 -rps 8000", func(t *testing.T, l *ledger) {
			if sent, graded, _, _ := totals(l); graded != sent || sent == 0 {
				t.Fatalf("%d of %d items graded", graded, sent)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := scenario(t, tc.args)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, l)
		})
	}
}

// TestVerifyRejects pins that the ledger is not vacuous: each way an
// arrival can go missing between generator and node fails verify.
func TestVerifyRejects(t *testing.T) {
	type fixture struct {
		l      *ledger
		global *api.TelemetrySnapshot
		parts  map[string]*api.TenantTelemetry
	}
	// Three arrivals of one tenant: two answered, one shed.
	build := func() fixture {
		l := newLedger()
		l.sent("response-time/0.05", "acme", 3)
		l.graded("response-time/0.05", "acme", 0, &api.DispatchResult{})
		l.graded("response-time/0.05", "acme", 0, &api.DispatchResult{})
		l.rejected("response-time/0.05", "acme", 1, &client.APIError{StatusCode: 429})
		l.coalescer = &coalesce.Stats{Bypassed: 1, Coalesced: 2, Shed: 1}
		return fixture{l, &api.TelemetrySnapshot{Requests: 2},
			map[string]*api.TenantTelemetry{"acme": {Requests: 2}}}
	}
	if f := build(); f.l.verify(f.global, f.parts, false) != nil {
		t.Fatalf("balanced ledger rejected: %v", f.l.verify(f.global, f.parts, false))
	}
	for name, breakIt := range map[string]func(fixture){
		"arrival never answered": func(f fixture) { f.l.sent("cost/0.1", "", 1) },
		"uninjected failure": func(f fixture) {
			f.l.sent("cost/0.1", "", 1)
			f.l.rejected("cost/0.1", "", 1, &client.APIError{StatusCode: 502})
		},
		"partition disagrees":      func(f fixture) { f.parts["acme"].Requests = 3 },
		"anonymous traffic leaked": func(f fixture) { f.global.Requests = 5 },
		"waiter stranded":          func(f fixture) { f.l.coalescer.Left = 1 },
		"window double-delivered":  func(f fixture) { f.l.coalescer.Coalesced = 3 },
	} {
		f := build()
		breakIt(f)
		if err := f.l.verify(f.global, f.parts, false); err == nil {
			t.Errorf("%s: verify accepted the ledger", name)
		}
	}
}
