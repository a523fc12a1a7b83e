package service

import (
	"sync"

	"github.com/toltiers/toltiers/internal/asr"
	"github.com/toltiers/toltiers/internal/costmodel"
	"github.com/toltiers/toltiers/internal/metrics"
	"github.com/toltiers/toltiers/internal/speech"
)

// asrCalibratedMeanWork is each preset's mean decode work (work units per
// request) measured on the default corpus by the asr calibration probe.
// The per-invocation price list is derived from it, mirroring
// compute-proportional vendor pricing.
var asrCalibratedMeanWork = map[string]float64{
	"asr-v1": 181863,
	"asr-v2": 194959,
	"asr-v3": 208050,
	"asr-v4": 233499,
	"asr-v5": 274266,
	"asr-v6": 366749,
	"asr-v7": 544372,
}

// ASRVersion wraps one beam-search configuration as a service version.
// Decoders are pooled because they keep per-call scratch.
type ASRVersion struct {
	cfg  asr.Config
	plan costmodel.Plan
	pool sync.Pool
}

// NewASRVersion binds cfg to the shared models as a service version.
func NewASRVersion(lm *speech.LanguageModel, am *speech.AcousticModel, cfg asr.Config) *ASRVersion {
	mean, ok := asrCalibratedMeanWork[cfg.Name]
	if !ok {
		// Uncalibrated custom config: estimate price from beam size
		// relative to the narrowest preset.
		mean = 181863 * (1 + float64(cfg.ShortlistK*cfg.MaxActive)/float64(32*14))
	}
	v := &ASRVersion{cfg: cfg, plan: costmodel.ASRPlan(mean)}
	v.pool.New = func() any { return asr.NewDecoder(lm, am, cfg) }
	return v
}

// Name implements Version.
func (v *ASRVersion) Name() string { return v.cfg.Name }

// Plan implements Version.
func (v *ASRVersion) Plan() costmodel.Plan { return v.plan }

// Process implements Version. It is safe for concurrent use; each call
// borrows a pooled decoder.
func (v *ASRVersion) Process(req *Request) Result {
	d := v.pool.Get().(*asr.Decoder)
	defer v.pool.Put(d)
	res := d.Decode(req.Utterance)
	return Result{
		Transcript: res.Words,
		Class:      -1,
		Confidence: res.Confidence,
		Latency:    res.Latency,
		WorkUnits:  res.WorkUnits,
	}
}

// WEREvaluator scores ASR results by word error rate.
type WEREvaluator struct{}

// Error implements Evaluator.
func (WEREvaluator) Error(req *Request, res Result) float64 {
	return metrics.WER(res.Transcript, req.Utterance.Words)
}

// NewASRService builds the full speech service: the seven Pareto
// versions over shared models, with the WER evaluator.
func NewASRService(lm *speech.LanguageModel, am *speech.AcousticModel) *Service {
	cfgs := asr.Versions()
	versions := make([]Version, len(cfgs))
	for i, cfg := range cfgs {
		versions[i] = NewASRVersion(lm, am, cfg)
	}
	return &Service{Domain: SpeechDomain, Versions: versions, Evaluator: WEREvaluator{}}
}

// SpeechRequests wraps utterances as service requests.
func SpeechRequests(utts []*speech.Utterance) []*Request {
	out := make([]*Request, len(utts))
	for i, u := range utts {
		out[i] = &Request{ID: u.ID, Utterance: u}
	}
	return out
}
