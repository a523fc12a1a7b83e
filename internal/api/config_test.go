package api

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var durationType = reflect.TypeOf(time.Duration(0))

// fillEveryField sets every field of the config *p points at to a
// distinct non-zero value, Durations to an odd nanosecond count, and
// fails on a field without a json tag.
func fillEveryField(t *testing.T, p any) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for i := range v.NumField() {
		f, sf := v.Field(i), v.Type().Field(i)
		if _, ok := sf.Tag.Lookup("json"); !ok {
			t.Errorf("%s.%s has no json tag", v.Type().Name(), sf.Name)
		}
		n := float64(i + 1)
		switch {
		case f.Type() == durationType:
			f.SetInt(int64(i+1)*1500*int64(time.Microsecond) + 7)
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.Int:
			f.SetInt(int64(i + 1))
		case f.Kind() == reflect.Float64:
			f.SetFloat(n + 0.25)
		case f.Type() == reflect.TypeOf(Rate{}):
			f.Set(reflect.ValueOf(Rate{PerSec: n, Burst: n + 0.5}))
		case f.Type() == reflect.TypeOf(map[string]Rate{}):
			f.Set(reflect.ValueOf(map[string]Rate{"gold": {PerSec: n, Burst: n + 0.5}, "free": {}}))
		default:
			t.Fatalf("%s.%s: no distinct value for type %s", v.Type().Name(), sf.Name, f.Type())
		}
	}
}

// jsonRoundTrip sets every field of *in, encodes it, and wants the
// decoded copy in *out equal, with each Duration served as float
// milliseconds under its *_ms key. A field added without a tag, or a
// Duration added without its shadow in MarshalJSON/UnmarshalJSON, fails.
func jsonRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	fillEveryField(t, in)
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("%v: %s", err, b)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("JSON round trip changed the config:\nin  %+v\nout %+v\nwire %s", in, out, b)
	}
	var wire map[string]any
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(in).Elem()
	for i := range v.NumField() {
		if sf := v.Type().Field(i); sf.Type == durationType {
			key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			want := float64(v.Field(i).Int()) / float64(time.Millisecond)
			if !strings.HasSuffix(key, "_ms") || wire[key] != want {
				t.Errorf("%s served as %q: %v, want float milliseconds %v", sf.Name, key, wire[key], want)
			}
		}
	}
}

func TestDriftConfigJSONRoundTrip(t *testing.T) {
	jsonRoundTrip(t, &DriftConfig{}, &DriftConfig{})
}

func TestAdmissionConfigJSONRoundTrip(t *testing.T) {
	jsonRoundTrip(t, &AdmissionConfig{}, &AdmissionConfig{})
}

// TestREADMEConfigBodies decodes the README's two curl bodies into the
// configs they document.
func TestREADMEConfigBodies(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	body := func(path string) []byte {
		t.Helper()
		re := regexp.MustCompile(`(?s)curl -X POST \S+` + path + ` \\\n.*?(?:-d|--data) '([^']*)'`)
		m := re.FindSubmatch(readme)
		if m == nil {
			t.Fatalf("README has no curl body for %s", path)
		}
		return m[1]
	}
	var adm AdmissionConfig
	if err := json.Unmarshal(body("/admission/config"), &adm); err != nil {
		t.Fatal(err)
	}
	wantAdm := AdmissionConfig{
		Enabled: true, MaxInFlight: 256, Brownout: true,
		Tenants: map[string]Rate{"metered": {PerSec: 50, Burst: 100}},
	}
	if !reflect.DeepEqual(adm, wantAdm) {
		t.Errorf("admission body decodes to %+v, want %+v", adm, wantAdm)
	}
	var dr DriftConfig
	if err := json.Unmarshal(body("/drift/config"), &dr); err != nil {
		t.Fatal(err)
	}
	if wantDr := (DriftConfig{Enabled: true, AutoReprofile: true, Window: 128, ErrLambda: 0.2}); dr != wantDr {
		t.Errorf("drift body decodes to %+v, want %+v", dr, wantDr)
	}
}

// TestConfigMillis pins the Duration conversion: the exact product
// rounded to the nanosecond (a truncating conversion reads 0.000249 ms
// as 248 ns), the sign checked before rounding, and overflow rejected.
func TestConfigMillis(t *testing.T) {
	for _, tc := range []struct {
		body string
		want time.Duration
	}{
		{`{"cooldown_ms": 0.000249}`, 249},
		{`{"cooldown_ms": 1500.5}`, 1500500 * time.Microsecond},
		{`{"cooldown_ms": 0.0000004}`, 0},
		{`{"cooldown_ms": -0}`, 0},
		{`{"cooldown_ms": 9e12}`, 9e18},
	} {
		var c DriftConfig
		if err := json.Unmarshal([]byte(tc.body), &c); err != nil || c.Cooldown != tc.want {
			t.Errorf("%s: %v, %v; want %v", tc.body, c.Cooldown, err, tc.want)
		}
	}
	for _, body := range []string{`{"cooldown_ms": -1e-7}`, `{"cooldown_ms": -1}`, `{"cooldown_ms": 1e13}`, `{"window": -1}`} {
		var c DriftConfig
		if err := json.Unmarshal([]byte(body), &c); err == nil {
			t.Errorf("%s accepted as %+v", body, c)
		}
	}
	// Every Duration below 2^33 ms reads back exactly; above it, every
	// Duration a wire value decodes to does.
	for _, d := range []time.Duration{1, 249, 999_999, 1<<33*time.Millisecond - 1} {
		if back, err := durationOf("", millis(d)); err != nil || back != d {
			t.Errorf("%d ns reads back as %d, %v", d, back, err)
		}
	}
	for _, ms := range []float64{8.6e9, 2.0438187938605434e10, 4.4e12, 9.2e12} {
		d, _ := durationOf("", ms)
		if back, err := durationOf("", millis(d)); err != nil || back != d {
			t.Errorf("%g ms = %d ns reads back as %d, %v", ms, d, back, err)
		}
	}
}
