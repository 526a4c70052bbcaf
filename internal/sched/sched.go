// Package sched defines the vocabulary shared by every scheduling
// algorithm in the repository: the mutable datacenter state (compute
// cluster + optical fabric), the result of placing one VM, the transaction
// that allocates compute and network together with rollback, and the
// Scheduler interface the simulator drives.
//
// The algorithms themselves live in package baseline (NULB, NALB — Zervas
// et al.) and package core (RISA, RISA-BF — the paper's contribution).
package sched

import (
	"fmt"
	"time"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// CPU-RAM round-trip latencies assumed by the paper (§5.2, from Zervas et
// al.): 110 ns within a rack, 330 ns across racks.
const (
	IntraRackCPURAMLatency = 110 * time.Nanosecond
	InterRackCPURAMLatency = 330 * time.Nanosecond
)

// State bundles the mutable planes every scheduler operates on, plus the
// assignment pool: released placement records are recycled into later
// Schedule calls so the steady-state path allocates nothing, and a pool
// miss refills it a slab at a time so a fresh datacenter's first
// placements allocate next to nothing either. The pool is part of the
// memory discipline documented in DESIGN.md §9: an Assignment belongs to
// its VM from AllocateVM until ReleaseVM, and must not be touched after
// release — ReleaseVM recycles it.
type State struct {
	Cluster *topology.Cluster
	Fabric  *network.Fabric

	freeAssignments []*Assignment
	inUse, peak     int // records out of the pool now, and at most ever
}

// NewState builds a fresh datacenter from the two configurations.
func NewState(tcfg topology.Config, ncfg network.Config) (*State, error) {
	cl, err := topology.New(tcfg)
	if err != nil {
		return nil, err
	}
	fab, err := network.NewFabric(cl, ncfg)
	if err != nil {
		return nil, err
	}
	return &State{Cluster: cl, Fabric: fab}, nil
}

// Units returns the unit configuration of the underlying cluster.
func (s *State) Units() units.Config { return s.Cluster.Config().Units }

// Assignment records everything a scheduled VM holds so it can be
// inspected (inter-rack? latency?) and released — and it is the VM's only
// heap record: in the architecture the paper evaluates a VM has exactly two
// circuits (CPU–RAM, RAM–storage) of at most six shared links each, so both
// live inside the assignment, and its three brick-share buffers are carved
// from its slab (see getAssignment). Assignments are pooled: AllocateVM
// takes them from the owning State's free list and ReleaseVM returns them,
// so an assignment — and the flows it points to — must not be read after
// its release, and must not be copied except through Adopt.
type Assignment struct {
	VM workload.VM

	// Compute placements; a placement is zero when the VM requests none
	// of that resource.
	CPU, RAM, STO topology.Placement

	// Optical circuits; nil when either endpoint requests nothing,
	// otherwise a pointer into flows below.
	CPURAMFlow, RAMSTOFlow *network.Flow

	// flows is the storage the two pointers above point into: slot 0 the
	// CPU–RAM circuit, slot 1 RAM–storage.
	flows [2]network.Flow

	// pooled marks an assignment sitting on the State's free list, making
	// a double ReleaseVM a no-op instead of a double pool insertion.
	pooled bool
}

// InterRack reports whether the assignment spans racks at all, i.e. the
// paper's "inter-rack VM assignment" (Figures 5 and 7).
func (a *Assignment) InterRack() bool {
	rack := -1
	for _, p := range [...]*topology.Placement{&a.CPU, &a.RAM, &a.STO} {
		if p.IsZero() {
			continue
		}
		if rack >= 0 && p.Box.Rack() != rack {
			return true
		}
		rack = p.Box.Rack()
	}
	return false
}

// CPURAMLatency returns the round-trip latency between the VM's CPU and
// RAM placements under the paper's constants. VMs without both placements
// report the intra-rack figure (their traffic never leaves a box).
func (a *Assignment) CPURAMLatency() time.Duration {
	if a.CPU.IsZero() || a.RAM.IsZero() {
		return IntraRackCPURAMLatency
	}
	if a.CPU.Box.Rack() != a.RAM.Box.Rack() {
		return InterRackCPURAMLatency
	}
	return IntraRackCPURAMLatency
}

// InterPod reports whether any of the assignment's flows crosses pods
// (always false on the paper's two-tier fabric; see the three-tier
// extension in package network).
func (a *Assignment) InterPod() bool {
	return (a.CPURAMFlow != nil && a.CPURAMFlow.InterPod()) ||
		(a.RAMSTOFlow != nil && a.RAMSTOFlow.InterPod())
}

// OnFailedHardware reports whether any of the assignment's compute
// placements sits on a box currently marked failed — the condition under
// which the fault subsystem's eviction policy displaces the VM.
func (a *Assignment) OnFailedHardware() bool {
	return (!a.CPU.IsZero() && a.CPU.Box.Failed()) ||
		(!a.RAM.IsZero() && a.RAM.Box.Failed()) ||
		(!a.STO.IsZero() && a.STO.Box.Failed())
}

// Flows returns the assignment's non-nil flows.
func (a *Assignment) Flows() []*network.Flow {
	var out []*network.Flow
	if a.CPURAMFlow != nil {
		out = append(out, a.CPURAMFlow)
	}
	if a.RAMSTOFlow != nil {
		out = append(out, a.RAMSTOFlow)
	}
	return out
}

// Scheduler is the contract the simulator drives. Implementations are
// stateful (they own placement cursors and bind to one State) and not safe
// for concurrent use.
type Scheduler interface {
	// Name returns the algorithm's paper name (NULB, NALB, RISA, RISA-BF).
	Name() string
	// Schedule places the VM or returns an error describing why it was
	// dropped. A failed Schedule leaves the state untouched.
	Schedule(vm workload.VM) (*Assignment, error)
	// Release returns an assignment's compute and network resources.
	Release(a *Assignment)
}

// BoxTriple names the chosen box per resource; entries for zero-request
// resources are nil.
type BoxTriple [units.NumResources]*topology.Box

// AllocateVM is the shared placement transaction: it carves the VM's
// compute out of the chosen boxes and reserves both optical flows, into
// the returned record's own slots, under the given link policy. On any
// failure everything is rolled back, the record returns to the pool and
// the state is exactly as before. Because every compute mutation goes
// through Cluster.Allocate/Release here, the per-rack free-capacity index
// (topology's MaxFree/FitsWholeVM/Free) stays current for every scheduler
// with no extra bookkeeping on their part — including mid-transaction
// rollbacks.
func (s *State) AllocateVM(vm workload.VM, boxes BoxTriple, policy network.Policy) (*Assignment, error) {
	a := s.getAssignment(vm)
	cfg := s.Units()
	fail := func(err error) (*Assignment, error) {
		s.releaseFlows(a)
		s.Cluster.Release(a.STO)
		s.Cluster.Release(a.RAM)
		s.Cluster.Release(a.CPU)
		s.putAssignment(a)
		return nil, err
	}
	if err := s.place(vm, boxes, units.CPU, &a.CPU); err != nil {
		return fail(err)
	}
	if err := s.place(vm, boxes, units.RAM, &a.RAM); err != nil {
		return fail(err)
	}
	if err := s.place(vm, boxes, units.Storage, &a.STO); err != nil {
		return fail(err)
	}
	if !a.CPU.IsZero() && !a.RAM.IsZero() {
		if err := s.Fabric.Reserve(&a.flows[0], a.CPU.Box, a.RAM.Box, cfg.CPURAMDemand(vm.Req), policy); err != nil {
			return fail(err)
		}
		a.CPURAMFlow = &a.flows[0]
	}
	if !a.RAM.IsZero() && !a.STO.IsZero() {
		if err := s.Fabric.Reserve(&a.flows[1], a.RAM.Box, a.STO.Box, cfg.RAMSTODemand(vm.Req), policy); err != nil {
			return fail(err)
		}
		a.RAMSTOFlow = &a.flows[1]
	}
	return a, nil
}

// place carves one resource component of vm out of its chosen box into
// *dst, reusing dst's brick-share buffer.
func (s *State) place(vm workload.VM, boxes BoxTriple, r units.Resource, dst *topology.Placement) error {
	if vm.Req[r] == 0 {
		return nil
	}
	if boxes[r] == nil {
		return fmt.Errorf("sched: VM %d requests %v but no box chosen", vm.ID, r)
	}
	if boxes[r].Kind() != r {
		return fmt.Errorf("sched: VM %d: box %v chosen for %v", vm.ID, boxes[r], r)
	}
	p, err := s.Cluster.AllocateInto(boxes[r], vm.Req[r], dst.Shares[:0])
	if err != nil {
		return err
	}
	*dst = p
	return nil
}

const (
	// assignmentSlab is how many records one pool miss allocates. A fresh
	// datacenter's pool is empty, so every VM resident at the peak costs
	// a miss: 64 records (≈27 KB with their share buffers) turn one
	// allocation per VM into one per 64, and the most a State can hold
	// unused is one slab — the paper's traces peak at 1070–2143
	// residents, a churn cell at about a thousand.
	assignmentSlab = 64
	// shareBufCap is the capacity a record's share buffers start with
	// (BricksPerBox, when that is smaller). A box fills its bricks
	// first-fit and no trace asks for more than a brick of anything, so a
	// placement has one share, or two when it straddles a brick boundary;
	// fragmentation can make it more, and then the buffer grows by
	// append, once, and stays grown — over a whole replay of the paper's
	// traces 0.03–4 % of the buffers do.
	shareBufCap = 2
)

// getAssignment pops a recycled assignment from the pool — refilling the
// pool first with a slab of fresh records when it is empty — and binds it
// to vm. A record keeps its brick-share buffers for life, so re-placing
// through it allocates nothing.
func (s *State) getAssignment(vm workload.VM) *Assignment {
	if len(s.freeAssignments) == 0 {
		s.refillAssignments()
	}
	n := len(s.freeAssignments)
	a := s.freeAssignments[n-1]
	s.freeAssignments[n-1] = nil
	s.freeAssignments = s.freeAssignments[:n-1]
	a.pooled = false
	a.VM = vm
	if s.inUse++; s.inUse > s.peak {
		s.peak = s.inUse
	}
	return a
}

// refillAssignments allocates one slab: assignmentSlab records in one
// array and their 3×assignmentSlab share buffers carved from another
// (three-index slices, so a buffer that outgrows its carve reallocates
// instead of running into its neighbour).
func (s *State) refillAssignments() {
	c := shareBufCap
	if b := s.Cluster.Config().BricksPerBox; b < c {
		c = b
	}
	recs := make([]Assignment, assignmentSlab)
	shares := make([]topology.BrickShare, 3*c*assignmentSlab)
	for i := range recs {
		a, buf := &recs[i], shares[3*c*i:]
		a.CPU.Shares = buf[0:0:c]
		a.RAM.Shares = buf[c : c : 2*c]
		a.STO.Shares = buf[2*c : 2*c : 3*c]
		a.pooled = true
		s.freeAssignments = append(s.freeAssignments, a)
	}
}

// putAssignment clears a released assignment — keeping its share buffers —
// and pushes it onto the pool.
func (s *State) putAssignment(a *Assignment) {
	a.VM = workload.VM{}
	clearPlacement(&a.CPU)
	clearPlacement(&a.RAM)
	clearPlacement(&a.STO)
	a.CPURAMFlow, a.RAMSTOFlow = nil, nil
	a.pooled = true
	s.inUse--
	s.freeAssignments = append(s.freeAssignments, a)
}

// AllocatedAssignments returns the most assignment records this State has
// ever had out of its pool at once — exactly, not rounded to the slabs
// they were allocated in, which would hide a leak smaller than a slab. A
// record leak cannot be detected from the pool's size — a leaked record is
// simply replaced by the next one — but it shows up here: replaying an
// identical warm script must not grow this high-water mark (the
// PreemptionNeverLeaks conformance property).
func (s *State) AllocatedAssignments() int { return s.peak }

// clearPlacement empties a placement while keeping its share buffer's
// capacity for reuse.
func clearPlacement(p *topology.Placement) {
	p.Box = nil
	p.Total = 0
	p.Shares = p.Shares[:0]
}

// ReleaseVM returns an assignment's resources and recycles the record into
// the State's assignment pool; it is the shared Release implementation.
// The assignment must not be used after this call (a second ReleaseVM of
// the same record is a guarded no-op).
func (s *State) ReleaseVM(a *Assignment) {
	if a == nil || a.pooled {
		return
	}
	s.releaseResources(a)
	s.putAssignment(a)
}

// ReleaseVMKeep returns an assignment's resources but leaves the record
// with the caller instead of recycling it. core.Rebalance needs this: it
// releases a live assignment, re-places the VM, and copies the new
// placement back into the caller-visible record — which must therefore
// stay out of the pool while it happens.
func (s *State) ReleaseVMKeep(a *Assignment) {
	if a == nil || a.pooled {
		return
	}
	s.releaseResources(a)
	clearPlacement(&a.CPU)
	clearPlacement(&a.RAM)
	clearPlacement(&a.STO)
}

// releaseResources returns the compute and network holdings of a without
// touching the record's pool state.
func (s *State) releaseResources(a *Assignment) {
	s.releaseFlows(a)
	s.Cluster.Release(a.CPU)
	s.Cluster.Release(a.RAM)
	s.Cluster.Release(a.STO)
}

// releaseFlows unreserves whichever circuits a holds, CPU–RAM first, and
// marks them absent: the one place a State gives bandwidth back, shared by
// release and by AllocateVM's rollback (where at most the first is held).
func (s *State) releaseFlows(a *Assignment) {
	if a.CPURAMFlow != nil {
		s.Fabric.Unreserve(a.CPURAMFlow)
	}
	if a.RAMSTOFlow != nil {
		s.Fabric.Unreserve(a.RAMSTOFlow)
	}
	a.CPURAMFlow, a.RAMSTOFlow = nil, nil
}

// Adopt moves src's contents into dst and retires src's emptied shell to
// the pool. It is the hand-back half of the ReleaseVMKeep protocol: after
// re-placing a VM, Rebalance and the fault subsystem's displacement adopt
// the fresh assignment into the record their caller holds. src must not
// be used afterwards.
//
// dst's (cleared) brick-share buffers are handed to the pooled shell
// rather than dropped: without that swap every adoption would retire a
// buffer-less record, and the next Schedule drawing it from the pool
// would re-grow all three share slices — a per-displacement allocation
// the fault path's zero-alloc contract (TestAllocsScheduleOneUnderFaults)
// forbids.
//
// The copy carries src's two flows over by value, so the flow pointers —
// which after a plain copy would still point into src, a shell about to be
// handed to another VM — are re-pointed at dst's own slots.
func (s *State) Adopt(dst, src *Assignment) {
	cpuBuf := dst.CPU.Shares[:0]
	ramBuf := dst.RAM.Shares[:0]
	stoBuf := dst.STO.Shares[:0]
	*dst = *src
	if dst.CPURAMFlow != nil {
		dst.CPURAMFlow = &dst.flows[0]
	}
	if dst.RAMSTOFlow != nil {
		dst.RAMSTOFlow = &dst.flows[1]
	}
	// Detach src's buffers before pooling the shell: dst now owns them,
	// and the shell inherits dst's old buffers.
	*src = Assignment{}
	src.CPU.Shares = cpuBuf
	src.RAM.Shares = ramBuf
	src.STO.Shares = stoBuf
	s.putAssignment(src)
}

// ScarcestResource returns the requested resource with the highest
// contention ratio (request over cluster-wide availability), the first
// step of NULB/NALB and of RISA's SUPER_RACK fallback. Ties break in
// canonical resource order; resources the VM does not request are skipped.
func ScarcestResource(cl *topology.Cluster, req units.Vector) (units.Resource, bool) {
	best := units.Resource(-1)
	bestCR := -1.0
	for _, r := range units.Resources() {
		if req[r] <= 0 {
			continue
		}
		if cr := cl.ContentionRatio(r, req[r]); cr > bestCR {
			best, bestCR = r, cr
		}
	}
	return best, best >= 0
}
