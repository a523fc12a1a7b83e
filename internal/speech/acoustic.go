package speech

import (
	"github.com/toltiers/toltiers/internal/xrand"
)

// AcousticModel maps words into a low-dimensional pronunciation space and
// scores how well an observed frame matches each word. In the real
// engine this is a neural acoustic model over audio features; here every
// word receives a fixed random embedding, an utterance emits one noisy
// frame per word, and the emission score is the Gaussian log-likelihood
// of the observation under the candidate word's embedding. The accuracy
// structure this induces — confusable word neighborhoods whose resolution
// needs both acoustic evidence and language-model context — is the same
// structure beam pruning trades away in the production engine.
type AcousticModel struct {
	dim        int
	embeddings [][]float64
}

// AcousticConfig parameterizes the embedding space.
type AcousticConfig struct {
	// Dim is the embedding dimensionality. Lower dimensions create more
	// confusable words.
	Dim int
	// Seed controls embedding synthesis.
	Seed uint64
}

// DefaultAcousticConfig returns the experiments' configuration.
func DefaultAcousticConfig() AcousticConfig { return AcousticConfig{Dim: 12, Seed: 0xac0421} }

// NewAcousticModel builds embeddings for vocabSize words.
func NewAcousticModel(vocabSize int, cfg AcousticConfig) *AcousticModel {
	if cfg.Dim <= 0 {
		cfg.Dim = 12
	}
	rng := xrand.New(cfg.Seed)
	am := &AcousticModel{dim: cfg.Dim}
	am.embeddings = make([][]float64, vocabSize)
	for w := range am.embeddings {
		r := rng.Split(uint64(w) + 17)
		e := make([]float64, cfg.Dim)
		for d := range e {
			e[d] = r.Norm()
		}
		am.embeddings[w] = e
	}
	return am
}

// Dim returns the embedding dimensionality.
func (am *AcousticModel) Dim() int { return am.dim }

// EmitFrame synthesizes the acoustic observation for spoken word w at
// noise scale sigma: the word's embedding plus isotropic Gaussian noise.
func (am *AcousticModel) EmitFrame(rng *xrand.RNG, w int, sigma float64) []float64 {
	e := am.embeddings[w]
	obs := make([]float64, am.dim)
	for d := range obs {
		obs[d] = e[d] + sigma*rng.Norm()
	}
	return obs
}

// Score returns the (unnormalized) Gaussian log-likelihood of obs under
// word w's embedding: -0.5 * ||obs - emb(w)||^2.
func (am *AcousticModel) Score(obs []float64, w int) float64 {
	e := am.embeddings[w]
	sum := 0.0
	for d, o := range obs {
		diff := o - e[d]
		sum += diff * diff
	}
	return -0.5 * sum
}

// ScoreAll computes emission scores for every vocabulary word against
// obs, writing into dst (which must have length VocabSize). This is the
// per-frame acoustic scoring pass whose cost is shared by all beam
// configurations; it returns dst for convenience.
func (am *AcousticModel) ScoreAll(obs []float64, dst []float64) []float64 {
	for w := range am.embeddings {
		dst[w] = am.Score(obs, w)
	}
	return dst
}

// Utterance is one speech service request: a reference transcript plus
// the synthesized acoustic observations the decoder will hear.
type Utterance struct {
	// ID is a corpus-unique identifier.
	ID int
	// Words is the reference transcript (word IDs).
	Words []int
	// Frames holds one observation vector per reference word.
	Frames [][]float64
	// Speaker and Env identify the synthetic speaker and recording
	// environment, which jointly set the noise level.
	Speaker int
	Env     int
	// Sigma is the realized acoustic noise scale.
	Sigma float64
}

// Len returns the number of reference words (and frames).
func (u *Utterance) Len() int { return len(u.Words) }

// AudioSeconds returns the simulated audio duration: the paper reports
// utterance latency relative to audio time; we model 0.42 s per word,
// matching VoxForge's ≈53 h over 35 k utterances at ≈8.6 words each.
func (u *Utterance) AudioSeconds() float64 { return 0.42 * float64(len(u.Words)) }

// Synthesizer generates utterances from a language and acoustic model
// with speaker/environment variation mimicking VoxForge's diversity.
//
// The noise distribution is a recording-environment mixture: most
// environments are clean (every engine version decodes them the same —
// the paper's "unchanged" majority), a band of moderately noisy
// environments rewards wider beams (the "improves" tail), and a small
// hopeless fraction defeats every version. This reproduces the Fig.-2
// category structure and the ~9%-relative WER span of Table I.
type Synthesizer struct {
	LM *LanguageModel
	AM *AcousticModel
	// Speakers is the number of distinct synthetic speakers.
	Speakers int
	// EnvSigmas lists the base noise scale of each recording
	// environment; an utterance picks one uniformly.
	EnvSigmas []float64
	// BaseSigma scales all environments (1 = calibrated default).
	BaseSigma float64
	// SpeakerSpread is the log-normal sigma of per-speaker multipliers.
	SpeakerSpread float64
	// MinWords and MaxWords bound sentence length (uniform).
	MinWords int
	MaxWords int

	speakerMul []float64
}

// NewSynthesizer builds a synthesizer with the given models and defaults
// calibrated for the experiments.
func NewSynthesizer(lm *LanguageModel, am *AcousticModel, seed uint64) *Synthesizer {
	s := &Synthesizer{
		LM:       lm,
		AM:       am,
		Speakers: 350,
		EnvSigmas: []float64{
			0.50, 0.55, 0.60, 0.64, 0.68, 0.71, 0.74, 0.77, // clean majority
			0.95, 1.05, // moderate: wide beams pay off
			2.3, 2.6, // hopeless tail (defeats every version)
		},
		BaseSigma:     1.0,
		SpeakerSpread: 0.08,
		MinWords:      3,
		MaxWords:      15,
	}
	rng := xrand.New(seed)
	s.speakerMul = make([]float64, s.Speakers)
	for i := range s.speakerMul {
		s.speakerMul[i] = rng.LogNorm(0, s.SpeakerSpread)
	}
	return s
}

// Utterance synthesizes utterance id deterministically: the same id
// always produces the same transcript and audio.
func (s *Synthesizer) Utterance(id int) *Utterance {
	rng := xrand.New(uint64(id)*0x9e3779b97f4a7c15 + 0xa5a5a5)
	length := s.MinWords + rng.Intn(s.MaxWords-s.MinWords+1)
	words := s.LM.SampleSentence(rng, length)
	speaker := rng.Intn(s.Speakers)
	env := rng.Intn(len(s.EnvSigmas))
	sigma := s.BaseSigma * s.EnvSigmas[env] * s.speakerMul[speaker]
	frames := make([][]float64, length)
	for i, w := range words {
		frames[i] = s.AM.EmitFrame(rng, w, sigma)
	}
	return &Utterance{
		ID:      id,
		Words:   words,
		Frames:  frames,
		Speaker: speaker,
		Env:     env,
		Sigma:   sigma,
	}
}

// Corpus synthesizes n utterances with IDs [first, first+n).
func (s *Synthesizer) Corpus(first, n int) []*Utterance {
	out := make([]*Utterance, n)
	for i := range out {
		out[i] = s.Utterance(first + i)
	}
	return out
}
