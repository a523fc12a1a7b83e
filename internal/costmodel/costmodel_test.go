package costmodel

import (
	"math"
	"testing"
	"time"
)

func TestPlanIaaSCost(t *testing.T) {
	p := Plan{PerInvocation: 0.01, NodeHourly: 1.0}
	got := p.IaaSCost(30 * time.Minute)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("IaaSCost(30m) = %v, want 0.5", got)
	}
	if p.InvocationCost() != 0.01 {
		t.Fatalf("InvocationCost = %v", p.InvocationCost())
	}
}

func TestBillingAccumulation(t *testing.T) {
	var b Billing
	p := Plan{PerInvocation: 0.002, NodeHourly: 3.6} // 0.001/s
	b.AddPriced(p.InvocationCost(), p.IaaSCost(time.Second))
	b.AddPriced(p.InvocationCost(), p.IaaSCost(2*time.Second))
	if b.Invocations != 2 {
		t.Fatalf("Invocations = %d", b.Invocations)
	}
	if math.Abs(b.InvocationTotal-0.004) > 1e-12 {
		t.Fatalf("InvocationTotal = %v", b.InvocationTotal)
	}
	if math.Abs(b.IaaSTotal-0.003) > 1e-12 {
		t.Fatalf("IaaSTotal = %v", b.IaaSTotal)
	}
}

func TestBillingMerge(t *testing.T) {
	a := Billing{Invocations: 1, InvocationTotal: 1, IaaSTotal: 2}
	b := Billing{Invocations: 2, InvocationTotal: 3, IaaSTotal: 4}
	a.Merge(b)
	if a.Invocations != 3 || a.InvocationTotal != 4 || a.IaaSTotal != 6 {
		t.Fatalf("merged = %+v", a)
	}
}

func TestASRPlanProportionalToWork(t *testing.T) {
	small := ASRPlan(100000)
	big := ASRPlan(544372)
	if big.PerInvocation <= small.PerInvocation {
		t.Fatal("ASR price not increasing with work")
	}
	if math.Abs(float64(big.PerInvocation)-0.02) > 1e-9 {
		t.Fatalf("widest ASR version price = %v, want ~$0.02", big.PerInvocation)
	}
	if small.NodeHourly != big.NodeHourly {
		t.Fatal("ASR versions should share a node type")
	}
	// Superlinear tier pricing: halving compute cuts the price by more
	// than half.
	half := ASRPlan(544372 / 2)
	if float64(half.PerInvocation) >= 0.02/2 {
		t.Fatalf("tier pricing not superlinear: half-work price %v", half.PerInvocation)
	}
}

func TestVisionPlanDeviceSplit(t *testing.T) {
	cpu := VisionPlan(10, false)
	gpu := VisionPlan(10, true)
	if gpu.NodeHourly <= cpu.NodeHourly {
		t.Fatal("GPU nodes must cost more per hour")
	}
	if gpu.PerInvocation >= cpu.PerInvocation {
		t.Fatal("GPU per-invocation price should be discounted per unit compute")
	}
	// Compute proportionality.
	if VisionPlan(20, false).PerInvocation != 2*cpu.PerInvocation {
		t.Fatal("vision price not proportional to GFLOPs")
	}
}
