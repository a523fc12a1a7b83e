// Package costmodel prices MLaaS invocations and infrastructure,
// mirroring the paper's two billing perspectives: per-invocation API
// pricing (what the API consumer pays, IBM Bluemix style) and IaaS
// node-time pricing (what the service provider pays to run the version
// pools).
package costmodel

import (
	"math"
	"time"
)

// Rate is a price in US dollars.
type Rate float64

// Plan prices one service version: a fixed per-invocation price plus the
// node-time rate of the hardware it runs on.
type Plan struct {
	// PerInvocation is the API price charged per request, proportional
	// to the version's compute in the paper's pricing.
	PerInvocation Rate
	// NodeHourly is the IaaS price of the node type that hosts the
	// version (CPU nodes cheaper than GPU nodes).
	NodeHourly Rate
}

// InvocationCost returns the consumer-side cost of one invocation.
func (p Plan) InvocationCost() float64 { return float64(p.PerInvocation) }

// IaaSCost returns the provider-side cost of occupying a node of this
// plan's type for d.
func (p Plan) IaaSCost(d time.Duration) float64 {
	return float64(p.NodeHourly) * d.Hours()
}

// Billing accumulates consumer invocation costs and provider IaaS costs
// across a workload.
type Billing struct {
	Invocations int
	// InvocationTotal is the summed per-invocation (API) cost.
	InvocationTotal float64
	// IaaSTotal is the summed node-time cost.
	IaaSTotal float64
}

// AddPriced records one invocation whose costs were already computed —
// the online dispatcher bills final amounts (e.g. an early-terminated
// hedge's pro-rated node time) rather than re-pricing from a plan.
func (b *Billing) AddPriced(invCost, iaasCost float64) {
	b.Invocations++
	b.InvocationTotal += invCost
	b.IaaSTotal += iaasCost
}

// Merge adds other's totals into b.
func (b *Billing) Merge(other Billing) {
	b.Invocations += other.Invocations
	b.InvocationTotal += other.InvocationTotal
	b.IaaSTotal += other.IaaSTotal
}

// Pricing constants for the default catalogs: a compute-proportional
// per-invocation price (per 1k invocations, Bluemix-style) and node
// rates for commodity CPU vs accelerated GPU instances.
const (
	// asrFlagshipPrice is the per-invocation price of the widest ASR
	// version, in line with commercial speech APIs.
	asrFlagshipPrice = 0.02
	// asrFlagshipWork is that version's calibrated mean decode work.
	asrFlagshipWork = 544372.0
	// asrPriceExponent makes tier prices grow superlinearly with
	// compute: commercial quality tiers are premium-priced well beyond
	// their marginal compute (e.g. "standard" vs "premium" speech
	// plans), which is what gives the paper's cost tiers room to cut
	// ~70% while latency only spans ~2.6x.
	asrPriceExponent = 1.6
	// cpuNodeHourly and gpuNodeHourly are the IaaS node rates.
	cpuNodeHourly = 0.50
	gpuNodeHourly = 3.20
)

// ASRPlan prices an ASR version from its mean decode work (work units
// per request): the tier price grows superlinearly with the version's
// compute share of the flagship; hosted on CPU nodes.
func ASRPlan(meanWorkUnits float64) Plan {
	share := meanWorkUnits / asrFlagshipWork
	return Plan{
		PerInvocation: Rate(asrFlagshipPrice * math.Pow(share, asrPriceExponent)),
		NodeHourly:    cpuNodeHourly,
	}
}

// VisionPlan prices an image-classification version from its GFLOPs and
// device: per-invocation price proportional to compute with a device
// multiplier, hosted on the matching node type. The flagship GPU version
// lands near $0.004 per image, in line with commercial vision APIs.
func VisionPlan(gflops float64, gpu bool) Plan {
	perInv := gflops * 0.0001
	node := Rate(cpuNodeHourly)
	if gpu {
		// GPU invocations are priced at a discount per unit compute
		// (higher throughput) but the nodes cost more per hour.
		perInv = gflops * 0.00006
		node = Rate(gpuNodeHourly)
	}
	return Plan{PerInvocation: Rate(perInv), NodeHourly: node}
}
