package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/rulegen"
)

// rollout tracks one rolling table push. Fields are guarded by Pool.mu.
type rollout struct {
	version int64
	cancel  context.CancelFunc
	done    bool
	pushed  []string
	evicted []string
	err     string
}

// EncodeTables serializes rule tables into the wire form a
// FleetTableUpdate (and the snapshot table sections) carries.
func EncodeTables(tables []rulegen.RuleTable) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, len(tables))
	for _, t := range tables {
		var buf bytes.Buffer
		if err := rulegen.WriteTable(&buf, t); err != nil {
			return nil, err
		}
		out = append(out, json.RawMessage(buf.Bytes()))
	}
	return out, nil
}

// DecodeTables is the worker-side inverse of EncodeTables.
func DecodeTables(raw []json.RawMessage) ([]rulegen.RuleTable, error) {
	out := make([]rulegen.RuleTable, 0, len(raw))
	for i, blob := range raw {
		t, err := rulegen.ReadTable(bytes.NewReader(blob), 0)
		if err != nil {
			return nil, fmt.Errorf("table %d: %w", i, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Promote moves the fence to ver — under the pool lock, so Status and
// Register see it at once and late joiners resync to the snapshot the
// front tier already persisted and serves under it — and starts the
// rolling push of the encoded table set: a background rollout walks the
// live workers one at a time in name order, POSTing /fleet/table and
// waiting for each ack before moving on. A worker that fails the push
// is evicted from rotation rather than left serving stale tables — its
// heartbeat comes back Known=false, it re-registers, and the Resync
// flag walks it through the snapshot endpoint to the fenced version. A
// Promote issued while a rollout is still walking supersedes it: the
// old rollout is cancelled at the next worker boundary and the new
// version's rollout starts from the full live list.
func (p *Pool) Promote(ver int64, tables []json.RawMessage) {
	now := p.now()
	p.mu.Lock()
	p.version = ver
	if p.rollout != nil && !p.rollout.done {
		p.rollout.cancel()
	}
	ctx, cancel := context.WithCancel(context.Background())
	ro := &rollout{version: ver, cancel: cancel}
	p.rollout = ro
	p.pruneLocked(now)
	routes := *p.routes.Load()
	p.mu.Unlock()
	targets := make([]string, len(routes))
	for i, m := range routes {
		targets[i] = m.name
	}

	p.logf("fleet: promoting table v%d; rolling push to %d worker(s)", ver, len(targets))
	go p.runRollout(ctx, ro, targets, api.FleetTableUpdate{Version: ver, Tables: tables})
}

// runRollout walks the target workers sequentially. Sequential is the
// point: at most one worker is mid-swap at any moment, every other
// worker serves a complete table set at a single version, and a
// failover never lands on a half-updated node (workers swap their
// registry atomically on ack).
func (p *Pool) runRollout(ctx context.Context, ro *rollout, targets []string, upd api.FleetTableUpdate) {
	defer func() {
		p.mu.Lock()
		ro.done = true
		p.mu.Unlock()
		ro.cancel()
	}()
	for _, name := range targets {
		if ctx.Err() != nil {
			p.mu.Lock()
			ro.err = "superseded by a newer promotion"
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		m := p.members[name]
		p.mu.Unlock()
		if m == nil {
			continue // lease lapsed mid-rollout; it will resync on re-register
		}
		acked, err := p.pushTable(ctx, m.base, upd)
		p.mu.Lock()
		if err != nil {
			if ctx.Err() != nil {
				ro.err = "superseded by a newer promotion"
				p.mu.Unlock()
				return
			}
			// Evict rather than leave a stale-table worker in rotation:
			// its next heartbeat returns Known=false, it re-registers,
			// and Resync brings it to the fenced version.
			if p.members[name] == m {
				p.dropLocked(m)
				p.publishLocked()
			}
			ro.evicted = append(ro.evicted, name)
			p.mu.Unlock()
			p.logf("fleet: push v%d to %s failed (%v); evicted for resync", upd.Version, name, err)
			continue
		}
		m.version.Store(acked)
		ro.pushed = append(ro.pushed, name)
		p.mu.Unlock()
		p.logf("fleet: worker %s acked table v%d", name, acked)
	}
}

// pushTable POSTs one FleetTableUpdate to a worker and returns the
// version its ack says it serves. Only a 200 acking upd's version is an
// ack. A 409 is the worker's version fence refusing the push, and a 200
// naming another version means the worker serves some other version
// than upd's: either way the push fails at once (a retry would meet the
// same worker state) and the rollout evicts the worker for resync.
func (p *Pool) pushTable(ctx context.Context, base string, upd api.FleetTableUpdate) (int64, error) {
	payload, err := json.Marshal(upd)
	if err != nil {
		return 0, err
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(200 * time.Millisecond):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			strings.TrimRight(base, "/")+"/fleet/table", bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := p.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		drainBody(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var ack api.FleetTableAck
			if err := json.Unmarshal(msg, &ack); err != nil {
				return 0, fmt.Errorf("decoding ack: %w", err)
			}
			if ack.Version != upd.Version {
				return ack.Version, fmt.Errorf("worker acked v%d, pushed v%d", ack.Version, upd.Version)
			}
			return ack.Version, nil
		}
		lastErr = fmt.Errorf("worker returned %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusConflict {
			break
		}
	}
	return 0, lastErr
}

// drainBody consumes the remainder of a response body (bounded) so the
// connection returns to the keep-alive pool.
func drainBody(r io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<20))
}
