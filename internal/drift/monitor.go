package drift

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/toltiers/toltiers/internal/api"
	"github.com/toltiers/toltiers/internal/dispatch"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/stats"
)

// Config parameterizes a Monitor. It is defined once, with its wire
// form, in internal/api; the zero value resolves to the defaults
// documented there.
type Config = api.DriftConfig

// withDefaults resolves zero fields to the monitor's defaults. The
// detector thresholds are deliberately conservative: a tier window mean
// carries sampling noise of roughly sqrt(e(1-e)/Window), and the
// Page–Hinkley false-positive bound exp(-2*delta*lambda/sigma^2) keeps
// stationary traffic quiet for these values while a real shift of a few
// percent error (or tens of percent latency) still fires within a
// handful of windows.
func withDefaults(c Config) Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.WarmupWindows <= 0 {
		c.WarmupWindows = 8
	}
	if c.ErrDelta <= 0 {
		c.ErrDelta = 0.02
	}
	if c.ErrLambda <= 0 {
		c.ErrLambda = 0.3
	}
	if c.LatDelta <= 0 {
		c.LatDelta = 0.05
	}
	if c.LatLambda <= 0 {
		c.LatLambda = 1.0
	}
	if c.CusumK <= 0 {
		c.CusumK = 0.5
	}
	if c.CusumH <= 0 {
		c.CusumH = 12
	}
	if c.QuantileRatio <= 0 {
		c.QuantileRatio = 0.5
	}
	if c.QuantileStrikes <= 0 {
		c.QuantileStrikes = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.SeasonCycles <= 0 {
		c.SeasonCycles = 2
	}
	if c.CanaryFraction <= 0 {
		c.CanaryFraction = 8
	}
	if c.CanaryMinSamples <= 0 {
		c.CanaryMinSamples = 96
	}
	if c.CanaryMaxDuration <= 0 {
		c.CanaryMaxDuration = 2 * time.Minute
	}
	if c.CanaryErrSigma <= 0 {
		c.CanaryErrSigma = 3
	}
	if c.CanaryLatSlack <= 0 {
		c.CanaryLatSlack = 0.25
	}
	if c.MaxHealRetries <= 0 {
		c.MaxHealRetries = 8
	}
	if c.HealBackoff <= 0 {
		c.HealBackoff = c.Cooldown
	}
	if c.HedgeBoost <= 0 {
		c.HedgeBoost = 0.99
	}
	return c
}

// Event is one confirmed distribution shift.
type Event struct {
	// At is the wall-clock detection time.
	At time.Time
	// Stream names what shifted: "tier:<objective>/<tolerance>" or
	// "backend:<name>".
	Stream string
	// Detector names the test that fired.
	Detector string
	// Value is the statistic that crossed Threshold.
	Value, Threshold float64
}

// Detector names used in events and statuses.
const (
	DetectorErrPH    = "page-hinkley-err"
	DetectorLatPH    = "page-hinkley-latency"
	DetectorErrCusum = "cusum-err"
	DetectorLatCusum = "cusum-latency"
	DetectorQuantile = "quantile-shift"
)

// detector slots inside a tierState.
const (
	slotErrPH = iota
	slotLatPH
	slotErrCusum
	slotLatCusum
	numSlots
)

var slotNames = [numSlots]string{DetectorErrPH, DetectorLatPH, DetectorErrCusum, DetectorLatCusum}

// tierState is one tier's windowed accumulator plus its detectors. The
// hot-path observe only touches plain fields under the tier's own
// mutex, so a registered tier is allocation-free to observe.
type tierState struct {
	mu   sync.Mutex
	tier string

	window, warmup int

	requests  int64
	failures  int64
	winN      int // outcomes in the current window
	winFail   int // failed dispatches in the current window
	winErrN   int
	winErrSum float64
	winLatSum float64

	windows                  int64
	latWindows               int64   // windows that carried at least one latency sample
	latBase                  float64 // warmup running mean of window latency means, then frozen
	baseSeeded               bool    // latBase restored from a snapshot; skip warmup learning
	lastErrMean, lastLatMean float64

	// Seasonal latency baseline: with seasonPeriod > 0 the tier learns a
	// per-phase latency profile over the first seasonPeriod*seasonCycles
	// latency windows (detectors quiet while it learns), then subtracts
	// the phase's deviation from the cycle mean before folding — a
	// periodic cycle cancels out, a genuine level shift survives.
	seasonPeriod, seasonCycles int
	seasonSum                  []float64
	seasonCnt                  []int64
	season                     []float64
	seasonMean                 float64
	seasonReady                bool

	errPH, latPH PageHinkley
	errCS, latCS CUSUM

	// alarmed[i] is detector slot i's current condition; reported[i]
	// marks that an event was already emitted for this episode (cleared
	// by ResetDetectors).
	alarmed, reported [numSlots]bool
}

// backendState is one backend's quantile-shift test, fed at Check time
// (never on the dispatch path).
type backendState struct {
	mu       sync.Mutex
	name     string
	qs       QuantileShift
	reported bool
}

// Monitor watches a dispatcher's live traffic for distribution shifts.
// It implements dispatch.Observer: hang it on dispatch.Options.Observer
// and every finished dispatch feeds the per-tier windowed detectors;
// call Check periodically (a serving node ticks it from its drift loop)
// to run the per-backend quantile tests and collect confirmed events.
// All methods are safe for concurrent use.
type Monitor struct {
	enabled atomic.Bool

	mu       sync.RWMutex // guards cfg and the tiers map
	cfg      Config
	tiers    map[string]*tierState
	backends []*backendState
	baseline []float64 // per-backend profiled p95 (ns)

	evMu        sync.Mutex
	events      []Event
	lastTrigger time.Time
	// Heal gate (all under evMu): the one in-flight slot — Check claims
	// it when it returns trigger, FinishHeal frees it — the bounded heal
	// history, and the consecutive-failure count driving the retry
	// backoff.
	inFlight     bool
	heals        []HealRecord
	healFailures int
	nextHealAt   time.Time

	// trial is the live canary comparison, nil when no heal is trialing
	// a candidate table. A single atomic pointer load keeps the
	// steady-state observe path allocation-free.
	trial atomic.Pointer[canaryTrial]

	reprofiles atomic.Int64
}

// maxEvents bounds the event history (oldest dropped first);
// maxHeals bounds the heal history.
const (
	maxEvents = 128
	maxHeals  = 64
)

// NewMonitor builds a monitor over the given backend list.
// baselineP95Ns supplies the profiled per-backend latency p95 the
// quantile-shift test compares against (nil or zero entries disable the
// test for that backend; BackendBaselines derives it from a profile
// matrix).
func NewMonitor(cfg Config, backendNames []string, baselineP95Ns []float64) *Monitor {
	m := &Monitor{baseline: make([]float64, len(backendNames))}
	copy(m.baseline, baselineP95Ns)
	m.backends = make([]*backendState, len(backendNames))
	for i, n := range backendNames {
		m.backends[i] = &backendState{name: n}
	}
	m.SetConfig(cfg)
	return m
}

// BackendBaselines derives the per-version latency p95 baselines (ns)
// from a profile matrix, in version order — the reference the
// quantile-shift test holds live backends to. They are taken at
// dispatch.HedgeQuantile, the quantile the live estimates use, or the
// shift test would compare mismatched order statistics.
func BackendBaselines(m *profile.Matrix) []float64 {
	nv := m.NumVersions()
	out := make([]float64, nv)
	col := make([]float64, m.NumRequests())
	for v := 0; v < nv; v++ {
		for i := range col {
			col[i] = m.LatencyNs[m.Index(i, v)]
		}
		if q, err := stats.Quantile(col, dispatch.HedgeQuantile); err == nil {
			out[v] = q
		}
	}
	return out
}

// SetConfig replaces the monitor's configuration and resets every
// detector (tier states are rebuilt lazily as traffic arrives; backend
// baselines are kept).
func (m *Monitor) SetConfig(cfg Config) {
	cfg = withDefaults(cfg)
	m.mu.Lock()
	m.cfg = cfg
	m.tiers = make(map[string]*tierState)
	for i, b := range m.backends {
		b.mu.Lock()
		b.qs = QuantileShift{Baseline: m.baseline[i], Ratio: cfg.QuantileRatio, Strikes: cfg.QuantileStrikes}
		b.reported = false
		b.mu.Unlock()
	}
	m.mu.Unlock()
	// A config push re-arms suspended self-healing: the retry backoff
	// and consecutive-failure count exist to stop unattended storms, and
	// an operator touching the config is exactly the attention they wait
	// for.
	m.evMu.Lock()
	m.healFailures = 0
	m.nextHealAt = time.Time{}
	m.evMu.Unlock()
	m.enabled.Store(cfg.Enabled)
}

// Config returns the resolved configuration.
func (m *Monitor) Config() Config {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cfg
}

// newTierState builds a tier's detectors from the current config.
func (m *Monitor) newTierState(tier string, cfg Config) *tierState {
	ts := &tierState{
		tier:   tier,
		window: cfg.Window,
		warmup: cfg.WarmupWindows,
		errPH:  PageHinkley{Delta: cfg.ErrDelta, Lambda: cfg.ErrLambda, MinSamples: cfg.WarmupWindows},
		latPH:  PageHinkley{Delta: cfg.LatDelta, Lambda: cfg.LatLambda, MinSamples: cfg.WarmupWindows},
		errCS:  CUSUM{K: cfg.CusumK, H: cfg.CusumH, Warmup: cfg.WarmupWindows},
		latCS:  CUSUM{K: cfg.CusumK, H: cfg.CusumH, Warmup: cfg.WarmupWindows},
	}
	if cfg.SeasonPeriod > 0 {
		ts.seasonPeriod = cfg.SeasonPeriod
		ts.seasonCycles = cfg.SeasonCycles
		ts.seasonSum = make([]float64, cfg.SeasonPeriod)
		ts.seasonCnt = make([]int64, cfg.SeasonPeriod)
		ts.season = make([]float64, cfg.SeasonPeriod)
	}
	return ts
}

// tier returns the tier's state, registering it on first sight.
func (m *Monitor) tier(name string) *tierState {
	m.mu.RLock()
	ts := m.tiers[name]
	m.mu.RUnlock()
	if ts != nil {
		return ts
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts = m.tiers[name]; ts == nil {
		ts = m.newTierState(name, m.cfg)
		m.tiers[name] = ts
	}
	return ts
}

// tierStates snapshots the registered tiers, so callers walk them
// without holding the monitor's lock.
func (m *Monitor) tierStates() []*tierState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	tiers := make([]*tierState, 0, len(m.tiers))
	for _, ts := range m.tiers {
		tiers = append(tiers, ts)
	}
	return tiers
}

// ObserveOutcome implements dispatch.Observer: it folds one finished
// dispatch into the tier's current window and, on window completion,
// feeds the detectors. Steady state is one uncontended mutex and plain
// arithmetic — no allocation (pinned by the alloc test and
// BenchmarkDriftObserve).
func (m *Monitor) ObserveOutcome(tier string, o *dispatch.Outcome) {
	if !m.enabled.Load() {
		return
	}
	if t := m.trial.Load(); t != nil {
		// A live canary compares against exactly this traffic: the
		// incumbent arm sees every regular outcome alongside the
		// detectors, so the verdict judges the two tables on the same
		// clock against the same backends.
		t.observeIncumbent(tier, o)
	}
	ts := m.tier(tier)
	ts.mu.Lock()
	ts.requests++
	ts.winN++
	ts.winLatSum += float64(o.Latency)
	if !math.IsNaN(o.Err) {
		ts.winErrN++
		ts.winErrSum += o.Err
	}
	if ts.winN+ts.winFail >= ts.window {
		ts.closeWindow()
	}
	ts.mu.Unlock()
}

// ObserveFailure implements dispatch.Observer for dispatches that
// produced no result at all. A failed request carries no latency or
// grade, but it is the strongest drift signal there is, so it advances
// the window and enters the error stream as a maximal (error 1)
// observation — a backend outage drives the tier's window-mean error
// toward 1 and fires the same detectors a grading collapse would.
func (m *Monitor) ObserveFailure(tier string) {
	if !m.enabled.Load() {
		return
	}
	if t := m.trial.Load(); t != nil {
		t.observeIncumbentFailure(tier)
	}
	ts := m.tier(tier)
	ts.mu.Lock()
	ts.requests++
	ts.failures++
	ts.winFail++
	if ts.winN+ts.winFail >= ts.window {
		ts.closeWindow()
	}
	ts.mu.Unlock()
}

// closeWindow feeds the completed window's means to the detectors and
// rewinds the accumulator. Called with ts.mu held.
func (ts *tierState) closeWindow() {
	ts.windows++
	if ts.winN > 0 {
		// Latency detectors only see windows with at least one finished
		// dispatch — failures report no latency to average. The warmup
		// baseline counts those windows too: an all-failure window must
		// neither dilute the running mean nor burn a warmup slot (it
		// could otherwise freeze the baseline at zero and disable the
		// relative test for good).
		ts.latWindows++
		latMean := ts.winLatSum / float64(ts.winN)
		// With a seasonal profile configured, the baseline learning span
		// stretches to cover it: a partial-cycle mean would bake the
		// season's phase bias into the frozen scale.
		warm := int64(ts.warmup)
		if sw := int64(ts.seasonPeriod) * int64(ts.seasonCycles); sw > warm {
			warm = sw
		}
		if !ts.baseSeeded && ts.latWindows <= warm {
			// Running warmup mean, frozen once alarms arm: the relative
			// latency test needs a scale the shift itself cannot drag.
			ts.latBase += (latMean - ts.latBase) / float64(ts.latWindows)
		}
		if ts.seasonPeriod > 0 && !ts.seasonReady {
			// Learning: accumulate the per-phase profile, detectors quiet
			// (a cycle fed raw would be exactly the false positive the
			// profile exists to suppress).
			phase := int((ts.latWindows - 1) % int64(ts.seasonPeriod))
			ts.seasonSum[phase] += latMean
			ts.seasonCnt[phase]++
			if ts.latWindows >= int64(ts.seasonPeriod)*int64(ts.seasonCycles) {
				total := 0.0
				for p := range ts.season {
					if ts.seasonCnt[p] > 0 {
						ts.season[p] = ts.seasonSum[p] / float64(ts.seasonCnt[p])
					}
					total += ts.season[p]
				}
				ts.seasonMean = total / float64(ts.seasonPeriod)
				ts.seasonReady = true
			}
		} else {
			adj := latMean
			if ts.seasonReady {
				phase := int((ts.latWindows - 1) % int64(ts.seasonPeriod))
				adj -= ts.season[phase] - ts.seasonMean
			}
			rel := 0.0
			if ts.latBase > 0 {
				rel = adj/ts.latBase - 1
			}
			ts.alarmed[slotLatPH] = ts.latPH.Observe(rel)
			ts.alarmed[slotLatCusum] = ts.latCS.Observe(adj)
		}
		ts.lastLatMean = latMean
	}
	if ts.winErrN+ts.winFail > 0 {
		// Failures enter the error stream as maximal observations.
		errMean := (ts.winErrSum + float64(ts.winFail)) / float64(ts.winErrN+ts.winFail)
		ts.alarmed[slotErrPH] = ts.errPH.Observe(errMean)
		ts.alarmed[slotErrCusum] = ts.errCS.Observe(errMean)
		ts.lastErrMean = errMean
	}
	ts.winN, ts.winFail, ts.winErrN = 0, 0, 0
	ts.winErrSum, ts.winLatSum = 0, 0
}

// slotStat returns detector slot i's (statistic, threshold) pair.
// Called with ts.mu held.
func (ts *tierState) slotStat(i int) (value, threshold float64) {
	switch i {
	case slotErrPH:
		return ts.errPH.Stat(), ts.errPH.Lambda
	case slotLatPH:
		return ts.latPH.Stat(), ts.latPH.Lambda
	case slotErrCusum:
		return ts.errCS.Stat(), ts.errCS.H
	default:
		return ts.latCS.Stat(), ts.latCS.H
	}
}

// Check runs the per-backend quantile-shift tests against the supplied
// live p95 estimates (ns; NaN = no estimate yet — the dispatcher's P95
// method has exactly this contract) and collects newly confirmed
// events. The returned trigger reports that the self-healing loop
// should fire now: some detector is alarmed, AutoReprofile is armed,
// no heal is in flight, and the cooldown since the last trigger and the
// retry backoff have passed. Returning true stamps the trigger time and
// claims the in-flight slot: the caller owns a heal and must end it
// with FinishHeal.
func (m *Monitor) Check(now time.Time, p95 func(backend int) float64) (events []Event, trigger bool) {
	if !m.enabled.Load() {
		return nil, false
	}
	cfg := m.Config()

	active := false
	for _, ts := range m.tierStates() {
		ts.mu.Lock()
		for i := 0; i < numSlots; i++ {
			if !ts.alarmed[i] {
				// A statistic that decayed back under its threshold ends
				// the episode: a later re-crossing is a fresh confirmed
				// shift and must emit a fresh event.
				ts.reported[i] = false
				continue
			}
			active = true
			if ts.reported[i] {
				continue
			}
			ts.reported[i] = true
			v, th := ts.slotStat(i)
			events = append(events, Event{
				At: now, Stream: "tier:" + ts.tier, Detector: slotNames[i],
				Value: v, Threshold: th,
			})
		}
		ts.mu.Unlock()
	}
	if p95 != nil {
		for i, b := range m.backends {
			b.mu.Lock()
			if b.qs.Observe(p95(i)) {
				active = true
				if !b.reported {
					b.reported = true
					events = append(events, Event{
						At: now, Stream: "backend:" + b.name, Detector: DetectorQuantile,
						Value: b.qs.Last(), Threshold: b.qs.Baseline * (1 + b.qs.Ratio),
					})
				}
			} else {
				b.reported = false // episode over; a later breach re-reports
			}
			b.mu.Unlock()
		}
	}

	m.evMu.Lock()
	m.events = append(m.events, events...)
	if n := len(m.events); n > maxEvents {
		m.events = append(m.events[:0], m.events[n-maxEvents:]...)
	}
	if active && cfg.AutoReprofile && !m.inFlight &&
		(m.lastTrigger.IsZero() || now.Sub(m.lastTrigger) >= cfg.Cooldown) &&
		(m.nextHealAt.IsZero() || !now.Before(m.nextHealAt)) &&
		m.healFailures < cfg.MaxHealRetries {
		m.lastTrigger = now
		m.inFlight = true
		trigger = true
	}
	m.evMu.Unlock()
	return events, trigger
}

// HealRecord is one completed self-healing attempt — the verdict
// history GET /drift serves and the state snapshot persists.
type HealRecord struct {
	// At is the wall-clock time the heal finished.
	At time.Time
	// Trigger describes the confirmed shift that started the heal.
	Trigger string
	// JobID is the rule-generation job the heal ran (0 = none started).
	JobID int
	// Verdict is HealPromoted, HealRejected or HealFailed.
	Verdict string
	// Promoted reports the healed table now serves all traffic.
	Promoted bool
	// Duration spans trigger to verdict.
	Duration time.Duration
	// Err carries the failure or rejection detail ("" on promotion).
	Err string
}

// Heal verdicts.
const (
	HealPromoted = "promoted"
	HealRejected = "rejected"
	HealFailed   = "failed"
)

// FinishHeal publishes the record of a finished heal — built by the
// heal's owner, which persists the same value first when it promoted —
// and frees the in-flight slot. A promotion bumps the reprofile count,
// resets the detectors (healed traffic re-baselines instead of
// re-alarming on the old statistics) and clears the consecutive-failure
// count; a rejection or failure advances the exponential retry backoff
// — the n-th consecutive non-promotion blocks the next trigger for
// HealBackoff * 2^(n-1) past rec.At, capped at 16x, and MaxHealRetries
// consecutive non-promotions suspend self-healing entirely until an
// operator re-arms it via SetConfig. Any live canary trial is torn down.
func (m *Monitor) FinishHeal(rec HealRecord) {
	if rec.Promoted {
		m.reprofiles.Add(1)
		m.ResetDetectors()
	}
	m.trial.Store(nil)
	cfg := m.Config()
	m.evMu.Lock()
	m.heals = append(m.heals, rec)
	if n := len(m.heals); n > maxHeals {
		m.heals = append(m.heals[:0], m.heals[n-maxHeals:]...)
	}
	if rec.Promoted {
		m.healFailures = 0
		m.nextHealAt = time.Time{}
	} else {
		m.healFailures++
		shift := m.healFailures - 1
		if shift > 4 {
			shift = 4
		}
		m.nextHealAt = rec.At.Add(cfg.HealBackoff << shift)
	}
	m.inFlight = false
	m.evMu.Unlock()
}

// Heals returns a copy of the heal history (newest last).
func (m *Monitor) Heals() []HealRecord {
	m.evMu.Lock()
	defer m.evMu.Unlock()
	return append([]HealRecord(nil), m.heals...)
}

// SeedHeals restores the heal history and applied-reprofile count from
// a persisted snapshot (replacing whatever is recorded so far).
func (m *Monitor) SeedHeals(heals []HealRecord, reprofiles int64) {
	m.evMu.Lock()
	m.heals = append(m.heals[:0], heals...)
	if n := len(m.heals); n > maxHeals {
		m.heals = append(m.heals[:0], m.heals[n-maxHeals:]...)
	}
	m.evMu.Unlock()
	m.reprofiles.Store(reprofiles)
}

// Reprofiles counts completed, applied self-healing loops.
func (m *Monitor) Reprofiles() int64 { return m.reprofiles.Add(0) }

// SetBaselines re-anchors the per-backend latency baselines (e.g. to a
// fresh re-profile after a heal) and clears the quantile-shift strikes
// so the tests judge against the new reference.
func (m *Monitor) SetBaselines(baselineP95Ns []float64) {
	m.mu.Lock()
	copy(m.baseline, baselineP95Ns)
	for i, b := range m.backends {
		b.mu.Lock()
		b.qs.Baseline = m.baseline[i]
		b.qs.Reset()
		b.reported = false
		b.mu.Unlock()
	}
	m.mu.Unlock()
}

// ResetDetectors rewinds every tier and backend detector (keeping
// configuration, baselines and the event history).
func (m *Monitor) ResetDetectors() {
	m.mu.Lock()
	m.tiers = make(map[string]*tierState)
	for _, b := range m.backends {
		b.mu.Lock()
		b.qs.Reset()
		b.reported = false
		b.mu.Unlock()
	}
	m.mu.Unlock()
}

// Events returns a copy of the confirmed-event history (newest last).
func (m *Monitor) Events() []Event {
	m.evMu.Lock()
	defer m.evMu.Unlock()
	return append([]Event(nil), m.events...)
}

// Status renders the wire view of the monitor. p95 supplies live
// per-backend latency estimates for display (nil omits them).
func (m *Monitor) Status(p95 func(backend int) float64) api.DriftStatus {
	// A copy: SetBaselines rewrites the slice when a heal applies,
	// possibly concurrently with a status poll.
	baseline := m.Baselines()
	st := api.DriftStatus{Config: m.Config(), Reprofiles: m.reprofiles.Add(0)}
	for _, ts := range m.tierStates() {
		ts.mu.Lock()
		ti := api.DriftTierStatus{
			Tier:              ts.tier,
			Requests:          ts.requests,
			Failures:          ts.failures,
			Windows:           ts.windows,
			MeanErr:           ts.lastErrMean,
			MeanLatencyMS:     ts.lastLatMean / 1e6,
			BaselineLatencyMS: ts.latBase / 1e6,
			ErrPH:             ts.errPH.Stat(),
			LatPH:             ts.latPH.Stat(),
			ErrCusum:          ts.errCS.Stat(),
			LatCusum:          ts.latCS.Stat(),
		}
		for i := 0; i < numSlots; i++ {
			if ts.alarmed[i] {
				ti.Alarmed = true
				ti.Reasons = append(ti.Reasons, slotNames[i])
			}
		}
		ts.mu.Unlock()
		st.Tiers = append(st.Tiers, ti)
	}
	sort.Slice(st.Tiers, func(i, j int) bool { return st.Tiers[i].Tier < st.Tiers[j].Tier })
	for i, b := range m.backends {
		b.mu.Lock()
		bi := api.DriftBackendStatus{
			Backend:       b.name,
			BaselineP95MS: baseline[i] / 1e6,
			Strikes:       b.qs.strikes,
			Alarmed:       b.qs.Alarmed(),
		}
		if last := b.qs.Last(); last > 0 {
			bi.ObservedP95MS = last / 1e6
		} else if p95 != nil {
			if v := p95(i); !math.IsNaN(v) {
				bi.ObservedP95MS = v / 1e6
			}
		}
		b.mu.Unlock()
		st.Backends = append(st.Backends, bi)
	}
	m.evMu.Lock()
	// Read with the history: a status that shows a heal's record also
	// shows the slot it freed.
	switch {
	case !m.enabled.Load():
		st.State = "disabled"
	case m.trial.Load() != nil:
		st.State = "canary"
	case m.inFlight:
		st.State = "triggered"
	default:
		st.State = "watching"
	}
	for _, e := range m.events {
		st.Events = append(st.Events, api.DriftEvent{
			UnixMS: e.At.UnixMilli(), Stream: e.Stream, Detector: e.Detector,
			Value: e.Value, Threshold: e.Threshold,
		})
	}
	for _, h := range m.heals {
		st.Heals = append(st.Heals, api.DriftHeal{
			UnixMS: h.At.UnixMilli(), Trigger: h.Trigger, JobID: h.JobID,
			Verdict: h.Verdict, Promoted: h.Promoted,
			DurationMS: float64(h.Duration) / float64(time.Millisecond),
			Error:      h.Err,
		})
	}
	m.evMu.Unlock()
	return st
}

// Baselines returns a copy of the per-backend latency baseline p95s
// (ns) the quantile-shift tests judge against — what a state snapshot
// persists alongside the matrix they were derived from.
func (m *Monitor) Baselines() []float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]float64(nil), m.baseline...)
}

// TierBaselines returns each observed tier's frozen warmup latency
// baseline (ns), omitting tiers that have not formed one yet.
func (m *Monitor) TierBaselines() map[string]float64 {
	out := make(map[string]float64)
	for _, ts := range m.tierStates() {
		ts.mu.Lock()
		if ts.latBase > 0 {
			out[ts.tier] = ts.latBase
		}
		ts.mu.Unlock()
	}
	return out
}

// SeedTierBaseline restores a tier's frozen latency baseline from a
// persisted snapshot: the tier skips warmup learning and its relative
// latency test judges against the restored scale from the first
// window. Seasonal profiles still learn fresh — they are cheap to
// re-learn and phase alignment does not survive a restart.
func (m *Monitor) SeedTierBaseline(tier string, latBaseNs float64) {
	if latBaseNs <= 0 {
		return
	}
	ts := m.tier(tier)
	ts.mu.Lock()
	ts.latBase = latBaseNs
	ts.baseSeeded = true
	ts.mu.Unlock()
}

// AlarmedBackends returns the indexes of backends whose quantile-shift
// test is currently alarmed — the set the server boosts the hedging
// quantile for while a heal is in flight.
func (m *Monitor) AlarmedBackends() []int {
	var out []int
	for i, b := range m.backends {
		b.mu.Lock()
		if b.qs.Alarmed() {
			out = append(out, i)
		}
		b.mu.Unlock()
	}
	return out
}

// AlarmedTiers returns the tier keys with an active detector alarm.
func (m *Monitor) AlarmedTiers() []string {
	var out []string
	for _, ts := range m.tierStates() {
		ts.mu.Lock()
		for i := 0; i < numSlots; i++ {
			if ts.alarmed[i] {
				out = append(out, ts.tier)
				break
			}
		}
		ts.mu.Unlock()
	}
	sort.Strings(out)
	return out
}
