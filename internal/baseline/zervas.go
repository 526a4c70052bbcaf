// Package baseline implements the two state-of-the-art schedulers the RISA
// paper compares against, from Zervas et al. (JOCN 2018):
//
//   - NULB, the network-unaware locality-based heuristic (the paper's
//     Algorithm 2): pick the most contended resource by contention ratio,
//     take the first box that can hold it, find the remaining resources by
//     breadth-first search (same rack first, then the other racks), and
//     reserve bandwidth on the first links that fit.
//   - NALB, the network-aware variant: the BFS visits candidate boxes in
//     descending order of their available uplink bandwidth, and the network
//     phase picks the links with the most available bandwidth.
//
// NULB's box choice is also what RISA hands its SUPER_RACK to
// (NULBChoice). Each algorithm has one candidate computation, choose;
// Schedule commits its result through State.AllocateVM.
package baseline

import (
	"fmt"

	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// zervas is the shared implementation of NULB and NALB.
type zervas struct {
	st   *sched.State
	nalb bool // true → NALB: bandwidth-ordered BFS + max-avail links
}

func init() {
	sched.Register("NULB", NewNULB)
	sched.Register("NALB", NewNALB)
}

// NewNULB returns the network-unaware locality-based scheduler bound to st.
func NewNULB(st *sched.State) sched.Scheduler { return &zervas{st: st} }

// NewNALB returns the network-aware locality-based scheduler bound to st.
func NewNALB(st *sched.State) sched.Scheduler { return &zervas{st: st, nalb: true} }

// NULBChoice computes NULB's box choice for vm over the whole cluster,
// and the link policy NULB reserves its flows under, without allocating
// anything: what RISA's SUPER_RACK tier commits.
func NULBChoice(st *sched.State, vm workload.VM) (sched.BoxTriple, network.Policy, error) {
	z := zervas{st: st}
	boxes, miss, home, ok := z.choose(vm)
	if !ok {
		return boxes, z.policy(), noBox(vm, miss, home)
	}
	return boxes, z.policy(), nil
}

// Name implements sched.Scheduler.
func (z *zervas) Name() string {
	if z.nalb {
		return "NALB"
	}
	return "NULB"
}

// policy is phase 2 of Algorithm 2, the network allocation: NULB takes
// the first links that fit, NALB the links with the most available
// bandwidth.
func (z *zervas) policy() network.Policy {
	if z.nalb {
		return network.MaxAvail
	}
	return network.FirstFit
}

// Schedule implements sched.Scheduler: Algorithm 2 over the whole
// cluster.
func (z *zervas) Schedule(vm workload.VM) (*sched.Assignment, error) {
	boxes, miss, home, ok := z.choose(vm)
	if !ok {
		return nil, noBox(vm, miss, home)
	}
	return z.st.AllocateVM(vm, boxes, z.policy())
}

// Release implements sched.Scheduler.
func (z *zervas) Release(a *sched.Assignment) { z.st.ReleaseVM(a) }

// choose is phases 1a and 1b of Algorithm 2 — the box choice — with no
// allocation and no writes: the scarcest resource takes the first
// fitting box in the cluster, the others are found by BFS outwards from
// that box's rack. When no placement exists, miss names the resource no
// box could hold (-1: nothing requested) and home the scarce box's rack
// (-1: not even that box was found), which noBox renders as Schedule's
// error.
func (z *zervas) choose(vm workload.VM) (boxes sched.BoxTriple, miss units.Resource, home int, ok bool) {
	resMax, ok := sched.ScarcestResource(z.st.Cluster, vm.Req)
	if !ok {
		return boxes, -1, -1, false
	}
	first := z.firstBox(resMax, vm.Req[resMax])
	if first == nil {
		return boxes, resMax, -1, false
	}
	boxes[resMax] = first
	for _, r := range units.Resources() {
		if r == resMax || vm.Req[r] == 0 {
			continue
		}
		if boxes[r] = z.bfsFind(first.Rack(), r, vm.Req[r]); boxes[r] == nil {
			return boxes, r, first.Rack(), false
		}
	}
	return boxes, -1, first.Rack(), true
}

// noBox renders a failed choose as the error Schedule drops the VM with.
func noBox(vm workload.VM, miss units.Resource, home int) error {
	switch {
	case miss < 0:
		return fmt.Errorf("baseline: VM %d requests nothing", vm.ID)
	case home < 0:
		return fmt.Errorf("baseline: VM %d: no box with %d %s free",
			vm.ID, vm.Req[miss], miss.Native())
	default:
		return fmt.Errorf("baseline: VM %d: no box with %d %s free reachable from rack %d",
			vm.ID, vm.Req[miss], miss.Native(), home)
	}
}

// firstBox returns the first box in global order holding kind r with
// enough free. Candidate racks come from the cluster-level index
// (ascending rack order, racks without a large-enough box never
// surface). The box-level test reads the rack's contiguous visible-free
// vector, which leaves the scan order (and thus the chosen box)
// identical to a full rack-major sweep over the box pointers while
// skipping the non-qualifying racks entirely.
func (z *zervas) firstBox(r units.Resource, need units.Amount) *topology.Box {
	cl := z.st.Cluster
	for ri := cl.NextRackWith(r, need, 0); ri >= 0; ri = cl.NextRackWith(r, need, ri+1) {
		if b := firstFit(cl.Rack(ri), r, need); b != nil {
			return b
		}
	}
	return nil
}

// bfsFind searches for a box of kind r with enough free space, visiting
// the home rack's boxes first and then every other rack (ascending
// index: all racks are equidistant through the inter-rack switch). NALB takes each
// BFS level in descending order of available uplink bandwidth.
//
// The second level is pruned through the cluster-level candidate index
// so only racks with a large-enough box contribute their boxes; dropping
// boxes that could never be picked does not change the choice (both
// policies only ever select a fitting box). Neither policy materializes
// the level. NULB scans it in construction order, so the first fitting
// box in ascending (rack, box) order wins. NALB's level order is
// descending uplink bandwidth with construction order breaking ties (the
// historical stable sort), and the pick is the first FITTING box in that
// order — equivalently, the fitting box with the maximum uplink
// bandwidth, earliest first among equals, which one running max over
// the level computes while probing the fabric only for boxes that fit.
func (z *zervas) bfsFind(homeRack int, r units.Resource, need units.Amount) *topology.Box {
	cl := z.st.Cluster
	if b := z.pickFromLevel(cl.Rack(homeRack), r, need); b != nil {
		return b
	}
	var chosen *topology.Box
	var bestKey units.Bandwidth
	for ri := cl.NextRackWith(r, need, 0); ri >= 0; ri = cl.NextRackWith(r, need, ri+1) {
		if ri == homeRack {
			continue
		}
		if z.nalb {
			chosen, bestKey = z.maxUplink(cl.Rack(ri), r, need, chosen, bestKey)
		} else if b := firstFit(cl.Rack(ri), r, need); b != nil {
			return b
		}
	}
	return chosen
}

// pickFromLevel returns the box one BFS level yields for kind res in one
// rack: the first fitting box in index order for NULB, the fitting box
// with the most available uplink bandwidth (ties to the earliest, the
// stable-sort order) for NALB.
func (z *zervas) pickFromLevel(rack *topology.Rack, res units.Resource, need units.Amount) *topology.Box {
	if z.nalb {
		b, _ := z.maxUplink(rack, res, need, nil, 0)
		return b
	}
	return firstFit(rack, res, need)
}

// firstFit returns the rack's first box of kind res, in index order,
// with at least need free.
func firstFit(rack *topology.Rack, res units.Resource, need units.Amount) *topology.Box {
	for i, f := range rack.FreeVecOf(res) {
		if f >= need {
			return rack.BoxesOf(res)[i]
		}
	}
	return nil
}

// maxUplink folds one rack into NALB's running pick: chosen stays the
// fitting box with strictly the most available uplink bandwidth seen so
// far, so among equals the earliest wins.
func (z *zervas) maxUplink(rack *topology.Rack, res units.Resource, need units.Amount, chosen *topology.Box, bestKey units.Bandwidth) (*topology.Box, units.Bandwidth) {
	fab := z.st.Fabric
	boxes := rack.BoxesOf(res)
	for i, f := range rack.FreeVecOf(res) {
		if f < need {
			continue
		}
		if k := fab.BoxUplinkFree(boxes[i]); chosen == nil || k > bestKey {
			chosen, bestKey = boxes[i], k
		}
	}
	return chosen, bestKey
}
