package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"
)

// DriftConfig parameterizes the drift monitor; drift.Config is an
// alias. It is also the body of POST /drift/config and the config echo
// in GET /drift: tags name the wire keys, and MarshalJSON/UnmarshalJSON
// carry the Duration fields as float milliseconds under their *_ms tags
// and reject negative values, so the handler applies what decodes. Zero
// values select the monitor's defaults, given per field.
type DriftConfig struct {
	// Enabled turns observation and detection on.
	Enabled bool `json:"enabled"`
	// AutoReprofile arms the self-healing loop: a confirmed shift
	// re-profiles the live backends and regenerates the rule tables
	// through the async rule-generation job; the healed tables always
	// earn their promotion through a canary trial (the Canary* fields).
	AutoReprofile bool `json:"auto_reprofile"`
	// Window is the number of dispatches folded into one detector
	// observation per tier (default 64).
	Window int `json:"window,omitempty"`
	// WarmupWindows is the number of windows that settle the baselines
	// before alarms arm (default 8).
	WarmupWindows int `json:"warmup_windows,omitempty"`
	// ErrDelta / ErrLambda parameterize the Page–Hinkley test on
	// window-mean task error (defaults 0.02 / 0.3).
	ErrDelta  float64 `json:"err_delta,omitempty"`
	ErrLambda float64 `json:"err_lambda,omitempty"`
	// LatDelta / LatLambda parameterize the Page–Hinkley test on
	// window-mean latency relative to its warmup baseline
	// (defaults 0.05 / 1.0).
	LatDelta  float64 `json:"lat_delta,omitempty"`
	LatLambda float64 `json:"lat_lambda,omitempty"`
	// CusumK / CusumH parameterize the standardized CUSUM tests on the
	// same window means (defaults 0.5 / 12).
	CusumK float64 `json:"cusum_k,omitempty"`
	CusumH float64 `json:"cusum_h,omitempty"`
	// QuantileRatio / QuantileStrikes parameterize the per-backend
	// latency-quantile shift test against the profiled baseline p95
	// (defaults 0.5 / 3 consecutive checks).
	QuantileRatio   float64 `json:"quantile_ratio,omitempty"`
	QuantileStrikes int     `json:"quantile_strikes,omitempty"`
	// Cooldown is the minimum gap between self-healing triggers
	// (default 30s).
	Cooldown time.Duration `json:"cooldown_ms,omitempty"`
	// SeasonPeriod is the per-tier seasonal baseline period in detector
	// windows (0 = seasonal adjustment off). When set, the monitor
	// learns a per-phase latency profile over the first
	// SeasonPeriod*SeasonCycles windows and subtracts it before the
	// PH/CUSUM latency folding, so a periodic cycle (a daily load wave)
	// is not read as drift.
	SeasonPeriod int `json:"season_period,omitempty"`
	// SeasonCycles is how many full periods the seasonal profile
	// averages over before it arms (default 2).
	SeasonCycles int `json:"season_cycles,omitempty"`
	// CanaryFraction is the deterministic slice of traffic routed
	// through a healed-but-unpromoted rule table, as 1/N of requests
	// (default 8, i.e. 1/8th).
	CanaryFraction int `json:"canary_fraction,omitempty"`
	// CanaryMinSamples is the per-tier sample floor both arms (canary
	// and incumbent) must reach before the verdict compares them
	// (default 96).
	CanaryMinSamples int `json:"canary_min_samples,omitempty"`
	// CanaryMaxDuration bounds a canary trial (default 2m): past it the
	// verdict is forced from whatever evidence exists.
	CanaryMaxDuration time.Duration `json:"canary_max_ms,omitempty"`
	// CanaryErrSigma is the error-mean tolerance in standard errors: the
	// canary passes a tier when its mean error stays within
	// CanaryErrSigma combined standard errors of the incumbent's
	// (default 3).
	CanaryErrSigma float64 `json:"canary_err_sigma,omitempty"`
	// CanaryLatSlack is the fractional p95 latency slack: the canary
	// passes when its p95 stays within (1+CanaryLatSlack) of the
	// incumbent's (default 0.25).
	CanaryLatSlack float64 `json:"canary_lat_slack,omitempty"`
	// MaxHealRetries suspends self-healing after this many consecutive
	// non-promoted heals (default 8); a promotion resets the count.
	MaxHealRetries int `json:"max_heal_retries,omitempty"`
	// HealBackoff is the base of the exponential backoff between
	// consecutive failed heals (default Cooldown): the n-th consecutive
	// failure waits HealBackoff * 2^(n-1), capped at 16x.
	HealBackoff time.Duration `json:"heal_backoff_ms,omitempty"`
	// HedgeBoost is the hedging quantile the dispatcher uses for
	// alarmed backends while a heal is in flight (default 0.99; >= 1
	// disables the boost).
	HedgeBoost float64 `json:"hedge_boost_quantile,omitempty"`
}

// MarshalJSON writes the Duration fields as float milliseconds. The
// method-less copy of the type it embeds keeps every other key; the
// shadowing fields win the *_ms keys.
func (c DriftConfig) MarshalJSON() ([]byte, error) {
	type plain DriftConfig
	return json.Marshal(struct {
		plain
		CooldownMS    float64 `json:"cooldown_ms,omitempty"`
		CanaryMaxMS   float64 `json:"canary_max_ms,omitempty"`
		HealBackoffMS float64 `json:"heal_backoff_ms,omitempty"`
	}{plain(c), millis(c.Cooldown), millis(c.CanaryMaxDuration), millis(c.HealBackoff)})
}

// UnmarshalJSON reads the *_ms keys into the Duration fields and
// rejects negative values.
func (c *DriftConfig) UnmarshalJSON(b []byte) error {
	type plain DriftConfig
	var w struct {
		plain
		CooldownMS    float64 `json:"cooldown_ms"`
		CanaryMaxMS   float64 `json:"canary_max_ms"`
		HealBackoffMS float64 `json:"heal_backoff_ms"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	cfg := DriftConfig(w.plain)
	var errs [3]error
	cfg.Cooldown, errs[0] = durationOf("cooldown_ms", w.CooldownMS)
	cfg.CanaryMaxDuration, errs[1] = durationOf("canary_max_ms", w.CanaryMaxMS)
	cfg.HealBackoff, errs[2] = durationOf("heal_backoff_ms", w.HealBackoffMS)
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	if !nonNegative(reflect.ValueOf(cfg)) {
		return errors.New("drift config fields must be non-negative")
	}
	*c = cfg
	return nil
}

// Rate is one tenant's token-bucket parameters (admit.Rate).
type Rate struct {
	// PerSec refills the bucket in tokens per second (0 = unlimited).
	PerSec float64 `json:"rate_per_sec"`
	// Burst caps the bucket (0 = max(PerSec, 1)).
	Burst float64 `json:"burst,omitempty"`
}

// AdmissionConfig parameterizes the admission layer; admit.Config is an
// alias. It is also the body of POST /admission/config and the config
// echo in GET /admission, on the same terms as DriftConfig, except that
// DefaultRate travels flat and a negative ShedMargin is accepted. The
// zero value is a disabled layer that admits everything untouched; see
// the field defaults.
type AdmissionConfig struct {
	// Enabled turns admission control on.
	Enabled bool `json:"enabled"`
	// MaxInFlight caps concurrently admitted dispatches (0 = unlimited:
	// capacity admission and the queue-saturation brownout trigger are
	// off). A batch admission holds one slot, mirroring the
	// dispatcher's batch limiter lease.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// PriorityReserve is the slice of MaxInFlight only priority tiers
	// may occupy, so bulk traffic can never starve the strict tiers of
	// slots (default 10% of MaxInFlight, at least 1; clamped to
	// MaxInFlight-1 so bulk traffic keeps at least one slot).
	PriorityReserve int `json:"priority_reserve,omitempty"`
	// PriorityTolerance bounds the priority class: requests with
	// tolerance <= it use the reserve and are never browned out
	// (default 0.01).
	PriorityTolerance float64 `json:"priority_tolerance,omitempty"`
	// DefaultRate is the token bucket applied to tenants without an
	// override in Tenants (zero PerSec = unlimited). It travels flat,
	// as default_rate_per_sec / default_burst.
	DefaultRate Rate `json:"-"`
	// Tenants overrides per-tenant bucket rates, keyed by tenant ID.
	Tenants map[string]Rate `json:"tenants,omitempty"`
	// ShedMargin scales the observed floor in the deadline-shed test: a
	// request is rejected when budget < floor*ShedMargin (default 1;
	// negative disables deadline shedding).
	ShedMargin float64 `json:"shed_margin,omitempty"`
	// Brownout arms the tier-downgrade controller.
	Brownout bool `json:"brownout,omitempty"`
	// BrownoutTolerance is the cheaper tier brownout downgrades
	// tolerant traffic to (default 0.10). Requests already at or above
	// it, and priority-tier requests, pass through unchanged — brownout
	// never upgrades.
	BrownoutTolerance float64 `json:"brownout_tolerance,omitempty"`
	// EngageShed / ReleaseShed are the per-interval shed fractions that
	// count an interval as breached or calm (defaults 0.10 / 0.02;
	// intervals in between reset both streaks — the dead band of the
	// hysteresis). Queue saturation (a capacity shed) also breaches.
	EngageShed  float64 `json:"brownout_engage_shed,omitempty"`
	ReleaseShed float64 `json:"brownout_release_shed,omitempty"`
	// EngageIntervals / ReleaseIntervals are the consecutive breached
	// (calm) intervals that flip brownout on (off) — defaults 2 / 4.
	EngageIntervals  int `json:"brownout_engage_intervals,omitempty"`
	ReleaseIntervals int `json:"brownout_release_intervals,omitempty"`
	// Interval is the brownout evaluation cadence (default 500ms).
	// Evaluation happens inline on the first admission past an interval
	// boundary; a fully idle span counts as calm intervals.
	Interval time.Duration `json:"brownout_interval_ms,omitempty"`
	// RetryAfter is the client hint attached to capacity and deadline
	// sheds (default 250ms); rate sheds compute theirs from the bucket.
	RetryAfter time.Duration `json:"retry_after_ms,omitempty"`
}

// MarshalJSON writes DefaultRate flat and the Duration fields as float
// milliseconds.
func (c AdmissionConfig) MarshalJSON() ([]byte, error) {
	type plain AdmissionConfig
	return json.Marshal(struct {
		plain
		DefaultRatePerSec float64 `json:"default_rate_per_sec,omitempty"`
		DefaultBurst      float64 `json:"default_burst,omitempty"`
		IntervalMS        float64 `json:"brownout_interval_ms,omitempty"`
		RetryAfterMS      float64 `json:"retry_after_ms,omitempty"`
	}{plain(c), c.DefaultRate.PerSec, c.DefaultRate.Burst, millis(c.Interval), millis(c.RetryAfter)})
}

// UnmarshalJSON reads the flat default rate and the *_ms keys, and
// rejects negative values other than ShedMargin.
func (c *AdmissionConfig) UnmarshalJSON(b []byte) error {
	type plain AdmissionConfig
	var w struct {
		plain
		DefaultRatePerSec float64 `json:"default_rate_per_sec"`
		DefaultBurst      float64 `json:"default_burst"`
		IntervalMS        float64 `json:"brownout_interval_ms"`
		RetryAfterMS      float64 `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	cfg := AdmissionConfig(w.plain)
	cfg.DefaultRate = Rate{PerSec: w.DefaultRatePerSec, Burst: w.DefaultBurst}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = nil // "tenants": {} is no overrides, as omitted
	}
	var errs [2]error
	cfg.Interval, errs[0] = durationOf("brownout_interval_ms", w.IntervalMS)
	cfg.RetryAfter, errs[1] = durationOf("retry_after_ms", w.RetryAfterMS)
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	check := cfg
	check.ShedMargin = 0 // negative disables the deadline shed
	if !nonNegative(reflect.ValueOf(check)) {
		return errors.New("admission config fields must be non-negative")
	}
	*c = cfg
	return nil
}

// millis is a Duration's wire form, float milliseconds. Below 2^33 ms
// (99 days) the plain quotient reads back exactly through durationOf.
// Above it float64 milliseconds are coarser than a nanosecond, and
// where the quotient reads back as another Duration, its neighbour that
// reads back exactly is served instead.
func millis(d time.Duration) float64 {
	x := float64(d) / float64(time.Millisecond)
	for _, y := range [...]float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
		if back, err := durationOf("", y); err == nil && back == d {
			return y
		}
	}
	return x
}

// durationOf reads a wire millisecond count: the exact product
// ms*1e6, which FMA recovers from the rounded float product, rounded to
// the nanosecond. Truncating the float product instead would read
// 0.000249 ms as 248 ns and break the round trip through millis. The
// sign is checked here, before conversion, because a sub-nanosecond
// negative such as -1e-7 rounds to a zero Duration.
func durationOf(key string, ms float64) (time.Duration, error) {
	p := ms * float64(time.Millisecond)
	switch {
	case ms < 0:
		return 0, fmt.Errorf("%s must be non-negative", key)
	case p >= 1<<63:
		return 0, fmt.Errorf("%s overflows a duration", key)
	}
	f := math.Floor(p)
	return time.Duration(f) + time.Duration(math.Round(p-f+math.FMA(ms, float64(time.Millisecond), -p))), nil
}

// nonNegative reports whether no number in v — a config struct, with
// nested structs and map values — is below zero.
func nonNegative(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return v.Int() >= 0
	case reflect.Float64:
		return v.Float() >= 0
	case reflect.Struct:
		for i := range v.NumField() {
			if !nonNegative(v.Field(i)) {
				return false
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if !nonNegative(it.Value()) {
				return false
			}
		}
	}
	return true
}
