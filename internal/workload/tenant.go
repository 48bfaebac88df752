// Multi-tenant mixes: several tenants, each with its own dataset, arrival
// process, and volume, interleaved into one fleet-facing trace. Per-tenant
// identity survives into serving results so reports can partition latency
// by tenant (the fairness axis a shared fleet must be measured on).
package workload

// TenantSpec describes one tenant's contribution to a mixed trace.
type TenantSpec struct {
	// Name identifies the tenant in request tags and reports.
	Name string
	// Dataset is the tenant's prompt population.
	Dataset Dataset
	// Arrivals shapes the tenant's traffic.
	Arrivals ArrivalProcess
	// N is the tenant's request count.
	N int
}

// tenantIDStride separates tenants' request-ID ranges within a mixed
// trace: tenant i draws IDs from (i+1)<<32.
const tenantIDStride uint64 = 1 << 32

// MultiTenantTrace samples a multi-tenant mix: StreamMultiTenant
// collected into a slice of the tenants' total request count.
func MultiTenantTrace(dim int, seed uint64, tenants []TenantSpec) []Request {
	n := 0
	for _, t := range tenants {
		n += t.N
	}
	return collect(StreamMultiTenant(dim, seed, tenants), n)
}
