// Package core implements the RISA paper's contribution: the Round-robin
// Intra-rack friendly Scheduling Algorithm (Algorithm 1) and its best-fit
// variant RISA-BF (Algorithm 3).
//
// RISA's idea: a VM whose whole request fits inside a single rack should
// be placed inside a single rack, because every inter-rack placement burns
// inter-rack optical bandwidth, switch power and latency. RISA therefore
//
//  1. builds the INTRA_RACK_POOL — every rack whose per-resource maximum
//     single-box availability covers the request;
//  2. walks that pool round-robin (a rotating cursor balances load across
//     racks) and places the VM in the first pool rack whose intra-rack
//     network can still carry the VM's flows;
//  3. only when the pool is empty (or no pool rack has network headroom)
//     builds the SUPER_RACK — per resource, the racks that could hold that
//     single component — and delegates to NULB restricted to those racks,
//     accepting an inter-rack placement.
//
// RISA-BF differs in step 2 only: boxes inside the chosen rack are taken
// best-fit (ascending free space) instead of first-fit, packing tighter
// and stranding less.
package core

import (
	"fmt"
	"slices"

	"risa/internal/baseline"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// RISA is the scheduler of Algorithm 1 (and, with best-fit box selection,
// Algorithm 3). Not safe for concurrent use.
type RISA struct {
	st     *sched.State
	opts   Options
	cursor int // round-robin rack cursor: next rack index to prefer
	stats  Stats

	// cursors holds the per-rack, per-resource next-fit box cursors,
	// stored densely by rack index (boxCursors).
	//
	// On the cursors themselves: the paper calls its intra-rack packing
	// "first-fit, box 0 first, then box 1", but Table 4 shows the
	// selection never returns to an earlier box while the current one
	// still fits (VM 4 with 5 cores goes to box 1 although box 0 has 9
	// free) — i.e. next-fit. We reproduce Table 4 exactly; see
	// DESIGN.md §4.
	cursors [][units.NumResources]int
}

func init() {
	sched.Register("RISA", func(st *sched.State) sched.Scheduler { return New(st) })
	sched.Register("RISA-BF", func(st *sched.State) sched.Scheduler { return NewBF(st) })
}

// New returns RISA bound to the given datacenter state.
func New(st *sched.State) *RISA { return NewWithOptions(st, Options{}) }

// NewBF returns RISA-BF (Algorithm 3) bound to the given state.
func NewBF(st *sched.State) *RISA {
	return NewWithOptions(st, Options{Packing: BestFit})
}

// NewWithOptions returns an ablated RISA variant; see Options.
func NewWithOptions(st *sched.State, opts Options) *RISA {
	return &RISA{st: st, opts: opts}
}

// Name implements sched.Scheduler: "RISA-BF" under best-fit packing,
// "RISA" otherwise. An ablation labels its own variants.
func (r *RISA) Name() string {
	if r.opts.Packing == BestFit {
		return "RISA-BF"
	}
	return "RISA"
}

// Release implements sched.Scheduler.
func (r *RISA) Release(a *sched.Assignment) { r.st.ReleaseVM(a) }

// Schedule implements sched.Scheduler: Algorithm 1 / Algorithm 3 for one
// VM — the candidate walk over the whole cluster, each candidate
// committed through the shared AllocateVM transaction until one sticks
// (a refused candidate rolls back completely, e.g. on per-link bandwidth
// fragmentation, and the walk moves on).
func (r *RISA) Schedule(vm workload.VM) (*sched.Assignment, error) {
	if !vm.Req.NonNegative() || vm.Req.IsZero() {
		return nil, fmt.Errorf("core: VM %d has unusable request %v", vm.ID, vm.Req)
	}
	w := r.newWalk(vm)
	for w.next() || w.superRack() {
		if a := w.commit(); a != nil {
			return a, nil
		}
	}
	r.stats.Dropped++
	return nil, w.err
}

// walk is the one candidate enumeration of Algorithm 1, for one VM. It
// yields placement candidates in the algorithm's preference order:
//
//  1. the INTRA_RACK_POOL round-robin — every rack whose per-resource
//     maximum single-box availability covers the request and whose
//     intra-rack links could carry both flows at all
//     (AVAIL_INTRA_RACK_NET), starting at the cursor, each with the boxes
//     the packing policy picks inside it;
//  2. last, the SUPER_RACK hand-off: NULB's choice over the whole
//     cluster, accepting an inter-rack placement.
//
// Schedule and Rebalance offer each candidate to commit; Rebalance stops
// short of the SUPER_RACK. The walk lives on the caller's stack.
//
// The pool is never materialized: qualifying racks are enumerated lazily
// through the cluster-level candidate index (NextRackFits) in ascending
// index order rotated at the cursor, so in the common case where an
// early candidate is accepted the remaining racks are never visited and
// the decision cost is independent of the cluster size. A refused
// candidate cannot disturb the enumeration: commits roll back completely,
// so the candidate set later NextRackFits calls see is the one a
// snapshot at entry would have produced.
type walk struct {
	r      *RISA
	vm     workload.VM
	demand units.Bandwidth // both flows' bandwidth, for AVAIL_INTRA_RACK_NET

	// The pool tier runs as two ascending segments [from, until):
	// cursor → last rack, then rack 0 → cursor.
	seg         int
	from, until int
	start       int
	poolSeen    bool // a qualifying rack existed (exhausted ⇒ all net-gated)

	// The current candidate: rack is its pool rack, or -1 for the
	// SUPER_RACK candidate.
	rack   int
	boxes  sched.BoxTriple
	policy network.Policy
	// err is why the latest candidate came to nothing: the SUPER_RACK
	// tier had none to offer, or commit was refused. Once the walk is
	// exhausted it is the error Schedule drops the VM with.
	err error
}

// The walk's segments, in order.
const (
	segFromCursor = iota // from the cursor to the last rack
	segToCursor          // from rack 0 up to the cursor
	segPoolDone          // pool exhausted; the SUPER_RACK candidate is next
	segDone
)

// newWalk starts the candidate walk for vm at the round-robin cursor.
func (r *RISA) newWalk(vm workload.VM) walk {
	cfg := r.st.Units()
	hi := r.st.Cluster.NumRacks()
	start := r.cursor
	if start < 0 || start >= hi {
		start = 0
	}
	return walk{
		r: r, vm: vm,
		demand: cfg.CPURAMDemand(vm.Req) + cfg.RAMSTODemand(vm.Req),
		from:   start, until: hi, start: start,
		policy: network.FirstFit,
	}
}

// next advances to the following pool candidate and reports whether
// there is one; the candidate is in w.rack, w.boxes and w.policy.
func (w *walk) next() bool {
	r := w.r
	cl := r.st.Cluster
	for w.seg < segPoolDone {
		i := cl.NextRackFits(w.vm.Req, w.from)
		if i < 0 || i >= w.until {
			w.seg++
			w.from, w.until = 0, w.start
			continue
		}
		w.from = i + 1
		w.poolSeen = true
		if r.st.Fabric.RackIntraFree(i) < w.demand {
			continue
		}
		if boxes, ok := r.chooseBoxes(cl.Rack(i), w.vm.Req); ok {
			w.rack, w.boxes = i, boxes
			return true
		}
	}
	return false
}

// superRack yields the walk's last candidate, once, after the pool is
// exhausted: the SUPER_RACK hand-off to NULB. Rebalance, which only
// wants intra-rack placements, stops short of it.
func (w *walk) superRack() bool {
	if w.seg == segDone {
		return false
	}
	w.seg = segDone
	r := w.r
	cl := r.st.Cluster
	if w.poolSeen {
		// Pool racks exist but none has the network headroom (or every
		// candidate was refused, e.g. on bandwidth fragmentation).
		r.stats.NetGated++
	} else {
		r.stats.PoolEmpty++
	}
	// The SUPER_RACK — per resource, the racks whose best box could hold
	// that component — is never materialized: NULB's own scans enumerate
	// candidate racks through NextRackWith with exactly the per-resource
	// needs, so a rack outside the SUPER_RACK can never surface in them.
	// The one observable of its own is the per-resource emptiness error,
	// reproduced by one O(log racks) candidate probe per resource.
	for _, res := range units.Resources() {
		if w.vm.Req[res] != 0 && cl.NextRackWith(res, w.vm.Req[res], 0) < 0 {
			w.err = fmt.Errorf("core: VM %d: SUPER_RACK empty for %v (need %d %s)",
				w.vm.ID, res, w.vm.Req[res], res.Native())
			return false
		}
	}
	w.rack = -1
	w.boxes, w.policy, w.err = baseline.NULBChoice(r.st, w.vm)
	return w.err == nil
}

// commit places the current candidate through the shared AllocateVM
// transaction, or returns nil with the state exactly as before. An
// intra-rack placement advances the round-robin cursor past the rack
// just used and remembers the next-fit box positions inside it.
func (w *walk) commit() *sched.Assignment {
	r := w.r
	a, err := r.st.AllocateVM(w.vm, w.boxes, w.policy)
	if err != nil {
		w.err = err
		return nil
	}
	if w.rack < 0 {
		r.stats.SuperRack++
		return a
	}
	r.stats.IntraRack++
	if !r.opts.DisableRoundRobin {
		r.cursor = (w.rack + 1) % r.st.Cluster.NumRacks()
	}
	if r.opts.Packing == NextFit {
		cur := r.boxCursors(w.rack)
		for _, res := range units.Resources() {
			if w.boxes[res] != nil {
				cur[res] = w.boxes[res].KindIndex()
			}
		}
	}
	return a
}

// chooseBoxes picks one box per requested resource inside the rack
// according to the packing policy. RISA packs next-fit: scanning starts at
// the rack's cursor box and wraps, staying on the current box while it
// fits (this is what the paper's Table 4 traces — see the cursors
// comment). RISA-BF takes the fitting box with the least free space
// (best-fit). First-fit and worst-fit exist for the packing ablation.
//
// All four policies scan the rack's visible-free vector (FreeVecOf) —
// one contiguous amount slice in box-index order, equal element for
// element to Free() over BoxesOf — and only dereference the single box
// they choose, so the per-candidate cost is a handful of cache lines
// regardless of cluster size.
func (r *RISA) chooseBoxes(rack *topology.Rack, req units.Vector) (sched.BoxTriple, bool) {
	var boxes sched.BoxTriple
	cur := r.boxCursors(rack.Index())
	for _, res := range units.Resources() {
		if req[res] == 0 {
			continue
		}
		free := rack.FreeVecOf(res)
		chosen := -1
		switch r.opts.Packing {
		case BestFit:
			for i, f := range free {
				if f < req[res] {
					continue
				}
				if chosen < 0 || f < free[chosen] {
					chosen = i
				}
			}
		case WorstFit:
			for i, f := range free {
				if f < req[res] {
					continue
				}
				if chosen < 0 || f > free[chosen] {
					chosen = i
				}
			}
		case FirstFit:
			for i, f := range free {
				if f >= req[res] {
					chosen = i
					break
				}
			}
		default: // NextFit — the paper's RISA
			start := cur[res]
			for k := 0; k < len(free); k++ {
				if i := (start + k) % len(free); free[i] >= req[res] {
					chosen = i
					break
				}
			}
		}
		if chosen < 0 {
			return boxes, false
		}
		boxes[res] = rack.BoxesOf(res)[chosen]
	}
	return boxes, true
}

// SchedulerState implements sched.StatefulScheduler: RISA's carried
// decision state is the round-robin rack cursor plus the per-rack
// next-fit box cursors. Diagnostic counters are excluded (they never
// influence a placement).
func (r *RISA) SchedulerState() sched.SchedulerState {
	st := sched.SchedulerState{Cursor: r.cursor}
	if len(r.cursors) > 0 {
		st.BoxCursors = slices.Clone(r.cursors)
	}
	return st
}

// RestoreSchedulerState implements sched.StatefulScheduler.
func (r *RISA) RestoreSchedulerState(st sched.SchedulerState) {
	r.cursor = st.Cursor
	r.cursors = append(r.cursors[:0], st.BoxCursors...)
}

// boxCursors returns the next-fit box cursors of rack i, growing the
// dense storage up to that rack on first use: the cluster can grow by
// whole racks at run time, and append doubles capacity, so this settles
// after the first pass over the cluster.
func (r *RISA) boxCursors(i int) *[units.NumResources]int {
	for len(r.cursors) <= i {
		r.cursors = append(r.cursors, [units.NumResources]int{})
	}
	return &r.cursors[i]
}
