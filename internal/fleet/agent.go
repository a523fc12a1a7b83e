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
	"github.com/toltiers/toltiers/internal/state"
)

// Agent is the worker side of fleet membership: it registers with the
// front tier, renews its lease on a heartbeat cadence, re-registers
// when the front tier forgets it (lease lapse, deregistration,
// front-tier restart), and invokes Resync whenever a register or
// heartbeat answer names a fleet version above the worker's own. It is
// the only way tables reach a worker: the front tier pushes none.
type Agent struct {
	// Join is the front tier's base URL; Name the lease identity;
	// Advertise the base URL the router dispatches to.
	Join      string
	Name      string
	Advertise string
	// Heartbeat is the renewal cadence (0 = 1s; keep it well under the
	// front tier's lease).
	Heartbeat time.Duration
	// Client is the control-plane HTTP client (nil = 10s timeout).
	Client *http.Client
	// Version reports the table version the worker currently serves.
	Version func() int64
	// Resync pulls the snapshot and installs it; invoked as soon as a
	// register or heartbeat answer names a fleet version above
	// Version(), and never when the worker's version is equal or higher.
	Resync func(ctx context.Context, fleetVersion int64) error
	// Logf, when set, receives membership events.
	Logf func(format string, args ...any)
}

func (a *Agent) client() *http.Client {
	if a.Client != nil {
		return a.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *Agent) version() int64 {
	if a.Version != nil {
		return a.Version()
	}
	return 0
}

// Run drives the membership loop until ctx is done. It blocks through
// an initial register (retrying with backoff while the front tier is
// unreachable) and then heartbeats forever; transient heartbeat
// failures are retried on the next tick, relying on the lease to
// resolve true partitions, and so is a failed resync. A successful
// resync is reported by a heartbeat at once, not a tick later: the
// front tier routes by reported versions.
func (a *Agent) Run(ctx context.Context) error {
	hb := a.Heartbeat
	if hb <= 0 {
		hb = time.Second
	}
	pulled, err := a.registerUntil(ctx)
	if err != nil {
		return err
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		if !pulled {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-ticker.C:
			}
		}
		pulled = false
		resp, err := a.heartbeat(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			a.logf("fleet agent: heartbeat failed: %v", err)
			continue
		}
		if !resp.Known {
			a.logf("fleet agent: front tier forgot lease for %s; re-registering", a.Name)
			if pulled, err = a.registerUntil(ctx); err != nil {
				return err
			}
			continue
		}
		pulled = a.converge(ctx, resp.TableVersion)
	}
}

// registerUntil retries registration with backoff until it succeeds or
// ctx dies, then converges on the version the grant names. The bool is
// converge's.
func (a *Agent) registerUntil(ctx context.Context) (bool, error) {
	delay := 100 * time.Millisecond
	for {
		resp, err := a.register(ctx)
		if err == nil {
			return a.converge(ctx, resp.TableVersion), nil
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		a.logf("fleet agent: register failed: %v (retrying in %v)", err, delay)
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(delay):
		}
		if delay < 2*time.Second {
			delay *= 2
		}
	}
}

// converge is the one pull rule, for register and heartbeat answers
// alike: a fleet version above the worker's own is pulled at once; an
// equal or lower one never is (a worker ahead of the fence is routed
// nothing until the fence reaches its version). It reports whether a
// pull brought the worker to fleetVersion.
func (a *Agent) converge(ctx context.Context, fleetVersion int64) bool {
	if a.Resync == nil || fleetVersion <= a.version() {
		return false
	}
	a.logf("fleet agent: resyncing tables to fleet v%d (local v%d)", fleetVersion, a.version())
	if err := a.Resync(ctx, fleetVersion); err != nil {
		a.logf("fleet agent: resync failed: %v", err)
		return false
	}
	return a.version() >= fleetVersion
}

func (a *Agent) register(ctx context.Context) (api.FleetRegisterResponse, error) {
	var resp api.FleetRegisterResponse
	err := a.post(ctx, "/fleet/register", api.FleetRegisterRequest{
		Name: a.Name, BaseURL: a.Advertise, TableVersion: a.version(),
	}, &resp)
	return resp, err
}

func (a *Agent) heartbeat(ctx context.Context) (api.FleetHeartbeatResponse, error) {
	var resp api.FleetHeartbeatResponse
	err := a.post(ctx, "/fleet/heartbeat", api.FleetHeartbeatRequest{
		Name: a.Name, TableVersion: a.version(),
	}, &resp)
	return resp, err
}

// Deregister removes the worker from rotation (graceful shutdown). A
// failure is non-fatal: the lease expires on its own.
func (a *Agent) Deregister(ctx context.Context) {
	if err := a.post(ctx, "/fleet/deregister", api.FleetHeartbeatRequest{Name: a.Name}, nil); err != nil {
		a.logf("fleet agent: deregister failed (lease will expire): %v", err)
	}
}

func (a *Agent) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(a.Join, "/")+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		drainBody(resp.Body)
		return fmt.Errorf("%s returned %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out); err != nil {
			return fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	drainBody(resp.Body)
	return nil
}

// maxSnapshot bounds a pulled snapshot's body.
const maxSnapshot = 256 << 20

// PullSnapshot fetches the front tier's state snapshot — profile matrix
// plus promoted rule tables, in the internal/state section format — for
// worker bootstrap and resync. No corpus or profiling run is needed on
// the worker: the matrix is the model.
func PullSnapshot(ctx context.Context, client *http.Client, join string) (*state.Snapshot, error) {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(join, "/")+"/fleet/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		drainBody(resp.Body)
		return nil, fmt.Errorf("/fleet/snapshot returned %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	// Sized once by the declared length; the MinRead spare lets ReadFrom
	// meet EOF without growing.
	var buf bytes.Buffer
	buf.Grow(int(min(max(resp.ContentLength, 0), maxSnapshot)) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxSnapshot)); err != nil {
		return nil, fmt.Errorf("reading fleet snapshot: %w", err)
	}
	snap, err := state.Read(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decoding fleet snapshot: %w", err)
	}
	return snap, nil
}

// drainBody consumes the remainder of a response body (bounded) so the
// connection returns to the keep-alive pool.
func drainBody(r io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r, 1<<20))
}
