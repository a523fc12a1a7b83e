// Package toltiers is the public API of the Tolerance Tiers library, a
// reproduction of "One Size Does Not Fit All: Quantifying and Exposing
// the Accuracy-Latency Trade-off in Machine Learning Cloud Service APIs
// via Tolerance Tiers" (Halpern et al., ISPASS 2019).
//
// Tolerance Tiers let MLaaS consumers annotate every request with an
// error tolerance and an optimization objective; the service routes the
// request through an ensemble of model versions that optimizes the
// objective while statistically guaranteeing the tolerance. This
// package is the embedding surface: build a corpus over a beam-search
// ASR engine or a CNN-zoo image classifier (both simulated substrates),
// profile it per request, bootstrap routing rules with the paper's
// Fig.-7 generator, audit them, and serve annotated requests in process
// or over HTTP. The serving node, the load driver and the experiment
// harness are the cmd/ binaries.
//
// # Quickstart
//
//	corpus := toltiers.NewSpeechCorpus(2000)
//	matrix := toltiers.Profile(corpus.Service, corpus.Requests)
//	gen := toltiers.NewRuleGenerator(matrix, nil, toltiers.DefaultGeneratorConfig())
//	table := gen.Generate(toltiers.ToleranceGrid(0.10, 0.01), toltiers.MinimizeLatency)
//	registry := toltiers.NewRegistry(corpus.Service, table)
//	result, outcome, rule, err := registry.Handle(corpus.Requests[0], 0.05, toltiers.MinimizeLatency)
//
// See examples/ for runnable scenarios.
package toltiers

import (
	"net/http"

	"github.com/toltiers/toltiers/internal/client"
	"github.com/toltiers/toltiers/internal/dataset"
	"github.com/toltiers/toltiers/internal/profile"
	"github.com/toltiers/toltiers/internal/rulegen"
	"github.com/toltiers/toltiers/internal/server"
	"github.com/toltiers/toltiers/internal/service"
	"github.com/toltiers/toltiers/internal/tiers"
	"github.com/toltiers/toltiers/internal/vision"
)

// Core service abstractions.
type (
	// Service bundles a domain's versions and evaluator.
	Service = service.Service
	// Request is one API request.
	Request = service.Request
)

// Matrix is the profiled request x version measurement table.
type Matrix = profile.Matrix

// Routing.
type (
	// Objective selects what a tier optimizes.
	Objective = rulegen.Objective
	// GeneratorConfig parameterizes the routing-rule generator.
	GeneratorConfig = rulegen.Config
	// RuleGenerator bootstraps candidate configurations (Fig. 7).
	RuleGenerator = rulegen.Generator
	// RuleTable maps tolerances to chosen configurations.
	RuleTable = rulegen.RuleTable
	// Registry is the consumer-facing tier registry.
	Registry = tiers.Registry
	// AuditReport verifies tier guarantees on held-out traffic.
	AuditReport = tiers.AuditReport
)

// Objectives.
const (
	// MinimizeLatency optimizes mean response time.
	MinimizeLatency = rulegen.MinimizeLatency
	// MinimizeCost optimizes mean invocation cost.
	MinimizeCost = rulegen.MinimizeCost
)

// SpeechCorpus bundles the ASR service with an utterance corpus.
type SpeechCorpus = dataset.SpeechCorpus

// VisionCorpus bundles the IC service with an image corpus.
type VisionCorpus = dataset.VisionCorpus

// NewSpeechCorpus builds the default ASR evaluation corpus with n
// utterances (n <= 0 selects the experiments' default size).
func NewSpeechCorpus(n int) *SpeechCorpus {
	return dataset.NewSpeechCorpus(dataset.SpeechCorpusConfig{N: n})
}

// NewVisionCorpus builds the default GPU image-classification corpus
// with n images (n <= 0 selects the experiments' default size).
func NewVisionCorpus(n int) *VisionCorpus {
	return dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: n, Device: vision.GPU})
}

// NewVisionCorpusCPU is NewVisionCorpus on the CPU device profile.
func NewVisionCorpusCPU(n int) *VisionCorpus {
	return dataset.NewVisionCorpus(dataset.VisionCorpusConfig{N: n, Device: vision.CPU})
}

// Profile measures every service version against every request.
func Profile(svc *Service, reqs []*Request) *Matrix { return profile.Build(svc, reqs) }

// DefaultGeneratorConfig returns the paper's generator settings (99.9%
// confidence, 1/10 bootstrap samples).
func DefaultGeneratorConfig() GeneratorConfig { return rulegen.DefaultConfig() }

// NewRuleGenerator bootstraps all candidate ensemble configurations over
// the training rows of m (nil = all rows).
func NewRuleGenerator(m *Matrix, trainRows []int, cfg GeneratorConfig) *RuleGenerator {
	return rulegen.New(m, trainRows, cfg)
}

// ToleranceGrid returns tolerances 0..max in the given step (the paper
// uses 0.10 and 0.001).
func ToleranceGrid(max, step float64) []float64 { return rulegen.ToleranceGrid(max, step) }

// NewRegistry builds the consumer-facing tier registry from generated
// rule tables.
func NewRegistry(svc *Service, tables ...RuleTable) *Registry {
	return tiers.NewRegistry(svc, tables...)
}

// Audit verifies every rule of the table on the given rows of m.
func Audit(m *Matrix, rows []int, table RuleTable) AuditReport { return tiers.Audit(m, rows, table) }

// NewHTTPHandler exposes a registry over HTTP with the paper's
// Tolerance/Objective request annotation.
func NewHTTPHandler(reg *Registry, reqs []*Request) http.Handler { return server.New(reg, reqs) }

// NewClient returns the Go SDK for a Tolerance Tiers endpoint.
func NewClient(base string, httpClient *http.Client) *client.Client {
	return client.New(base, httpClient)
}

// Split partitions [0, n) into train/test index sets.
func Split(n int, trainFrac float64, seed uint64) (train, test []int) {
	return dataset.Split(n, trainFrac, seed)
}
