package workload

import "testing"

// TestAbusiveBurstLoop: the abusive profile keeps the contract of the
// rate-parameterized presets (mean rate ≈ nominal) while being markedly
// more overdispersed than the standard bursty preset, and its dataset
// ships oversized prompts.
func TestAbusiveBurstLoop(t *testing.T) {
	const rate = 20.0
	abusive := AbusiveBurstLoop(rate)
	if m := abusive.MeanRate(); m < 0.7*rate || m > 1.3*rate {
		t.Fatalf("mean rate %v strays from nominal %v", m, rate)
	}
	n := 4000
	span := func(ts []float64) float64 { return ts[len(ts)-1] }
	at := times(abusive, n, 7)
	bt := times(BurstyMMPP(rate), n, 7)
	ad := IndexOfDispersion(at, span(at)/64)
	bd := IndexOfDispersion(bt, span(bt)/64)
	if ad <= bd {
		t.Fatalf("abusive dispersion %v not above bursty %v", ad, bd)
	}

	d := AdversarialDataset(3)
	reqs := d.Sample(Options{Dim: 8, N: 200, Seed: 3, IDBase: 1 << 32})
	var in int
	for _, q := range reqs {
		in += q.InputTokens
	}
	if mean := float64(in) / float64(len(reqs)); mean < 0.8*float64(d.MeanInput) {
		t.Fatalf("adversarial mean input %v far below the declared %d", mean, d.MeanInput)
	}

	spec := AdversarialTenant("abuser", rate, 50, 11)
	if spec.Name != "abuser" || spec.N != 50 || spec.Arrivals.Name() != "mmpp" {
		t.Fatalf("tenant spec wrong: %+v", spec)
	}
	trace := MultiTenantTrace(8, 1, []TenantSpec{spec})
	if len(trace) != 50 || trace[0].Tenant != "abuser" {
		t.Fatalf("trace len %d tenant %q", len(trace), trace[0].Tenant)
	}
}
