package core

// Stats counts the decision paths RISA took since construction. The
// paper's §5.3 claims that "in practice INTRA_RACK_POOL is not always
// empty. In fact for the simulation results discussed ... it was never
// empty" — PoolEmpty lets an experiment verify that claim directly.
type Stats struct {
	// IntraRack counts VMs placed through the INTRA_RACK_POOL path.
	IntraRack int
	// SuperRack counts VMs that went through the NULB fallback (pool
	// empty, or no pool rack had network headroom).
	SuperRack int
	// PoolEmpty counts arrivals that found INTRA_RACK_POOL empty.
	PoolEmpty int
	// NetGated counts arrivals whose pool was non-empty but where every
	// pool rack failed the AVAIL_INTRA_RACK_NET check or the placement
	// transaction, forcing the fallback.
	NetGated int
	// Dropped counts VMs neither path could place.
	Dropped int
}

// Stats returns a copy of the counters.
func (r *RISA) Stats() Stats { return r.stats }
