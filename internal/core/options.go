package core

import "fmt"

// BoxPolicy selects how RISA picks a box inside the chosen rack.
type BoxPolicy int

// The intra-rack packing policies. NextFit is RISA's (Algorithm 1 as
// traced by Table 4); BestFit is RISA-BF's (Algorithm 3); FirstFit and
// WorstFit exist for the packing ablation.
const (
	NextFit BoxPolicy = iota
	BestFit
	FirstFit
	WorstFit
)

// String names the policy.
func (p BoxPolicy) String() string {
	switch p {
	case NextFit:
		return "next-fit"
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return fmt.Sprintf("BoxPolicy(%d)", int(p))
	}
}

// Options tune RISA away from the paper's exact algorithm for ablation
// studies. The zero value is the paper's RISA.
type Options struct {
	// Packing selects the intra-rack box policy (default NextFit = RISA).
	Packing BoxPolicy
	// DisableRoundRobin pins the rack cursor at zero, so the first rack
	// in the pool is always preferred — the load-balancing ablation.
	DisableRoundRobin bool
}
