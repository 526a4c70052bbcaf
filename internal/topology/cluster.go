package topology

import (
	"fmt"

	"risa/internal/units"
)

// Rack groups the boxes that share one intra-rack optical switch.
type Rack struct {
	index  int
	boxes  []*Box                     // all boxes, in intra-rack index order
	byKind [units.NumResources][]*Box // same boxes grouped by resource kind
	// vis is the rack's window into the cluster's per-kind visible-free
	// vectors (Cluster.vis): vis[k][i] == byKind[k][i].Free() at all times.
	// The hot box scans (MaxFree and Free, the packing policies, the BFS
	// levels) read these contiguous amounts instead of chasing the box
	// pointers, which is what keeps the per-decision cost flat at
	// hyperscale rack counts.
	vis [units.NumResources][]units.Amount
}

// Index returns the rack's position in the cluster.
func (r *Rack) Index() int { return r.index }

// Boxes returns all boxes of the rack in index order. The slice is shared;
// callers must not modify it.
func (r *Rack) Boxes() []*Box { return r.boxes }

// BoxesOf returns the rack's boxes of kind k in index order. The slice is
// shared; callers must not modify it.
func (r *Rack) BoxesOf(k units.Resource) []*Box { return r.byKind[k] }

// FreeVecOf returns the rack's visible-free vector for kind k:
// FreeVecOf(k)[i] == BoxesOf(k)[i].Free() (0 while the box is failed),
// maintained on every mutation. The slice is shared and read-only for
// callers; it aliases the cluster-wide vector (Cluster.vis), so the
// structure-of-arrays scan order equals the box-pointer scan order.
func (r *Rack) FreeVecOf(k units.Resource) []units.Amount { return r.vis[k] }

// MaxFree returns the largest free amount of kind k available in any single
// box of the rack, and the earliest box attaining it (nil when nothing is
// free). RISA's INTRA_RACK_POOL test is built on this: a rack can host a
// whole VM iff MaxFree ≥ request for every kind. The answer is a scan of
// the rack's visible-free window (one to a few contiguous amounts) with a
// strict comparison, so a tie goes to the earliest box; the box pointer is
// loaded once, after the scan.
func (r *Rack) MaxFree(k units.Resource) (units.Amount, *Box) {
	var top units.Amount
	best := -1
	for i, f := range r.vis[k] {
		if f > top {
			top, best = f, i
		}
	}
	if best < 0 {
		return 0, nil
	}
	return top, r.byKind[k][best]
}

// maxFree is MaxFree's amount alone: a max-only scan of the rack's
// visible-free window, for the callers that never look at the box (the
// candidate tree, FitsWholeVM, CheckInvariants).
func (r *Rack) maxFree(k units.Resource) units.Amount {
	var top units.Amount
	for _, f := range r.vis[k] {
		top = max(top, f)
	}
	return top
}

// FitsWholeVM reports whether some single box per kind can hold each
// component of req, i.e. the rack qualifies for RISA's INTRA_RACK_POOL.
func (r *Rack) FitsWholeVM(req units.Vector) bool {
	for _, k := range units.Resources() {
		if req[k] != 0 && r.maxFree(k) < req[k] {
			return false
		}
	}
	return true
}

// Free returns the total free amount of kind k across the rack's healthy
// boxes: the sum of its visible-free window, where a failed box reads 0.
func (r *Rack) Free(k units.Resource) units.Amount {
	var total units.Amount
	for _, f := range r.vis[k] {
		total += f
	}
	return total
}

// Cluster is the complete disaggregated datacenter compute plane.
type Cluster struct {
	cfg   Config
	racks []*Rack
	boxes []*Box // rack-major flattened order
	free  units.Vector
	cap   units.Vector

	// vis is the structure-of-arrays mirror of the boxes' visible free
	// amounts: per resource kind, one contiguous vector indexed by the
	// dense per-kind box id (Box.visIx = rack*BoxKindCount(kind)+kindIx),
	// holding exactly Box.Free() — the unallocated amount, or 0 while the
	// box is failed. Every mutation that changes a box's visible free
	// amount syncs its slot (syncVis), so the decision-loop scans read
	// cache-line-packed amounts instead of walking box pointers. The
	// regular per-rack box layout (Config) is what makes the dense id
	// well-defined.
	vis [units.NumResources][]units.Amount

	// cidx is the cluster-level candidate index, the one cached index
	// over the compute plane: per resource kind, a max-tree over rack
	// indices bounding each rack's MaxFree, so schedulers can enumerate
	// qualifying racks without scanning all of them. See clusterindex.go.
	cidx [units.NumResources]maxTree
}

// New builds the regular cluster described by cfg. Boxes within each rack
// are laid out kind-major: all CPU boxes first, then RAM, then storage,
// mirroring the id assignment of the paper's toy examples.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	for _, kind := range units.Resources() {
		c.vis[kind] = make([]units.Amount, cfg.Racks*cfg.BoxKindCount(kind))
	}
	for ri := 0; ri < cfg.Racks; ri++ {
		rack := &Rack{index: ri}
		idx := 0
		for _, kind := range units.Resources() {
			brickCap := cfg.BrickCapacity(kind)
			perKind := cfg.BoxKindCount(kind)
			rack.vis[kind] = c.vis[kind][ri*perKind : (ri+1)*perKind : (ri+1)*perKind]
			for ki := 0; ki < perKind; ki++ {
				box := &Box{
					rack:     ri,
					index:    idx,
					kindIx:   ki,
					visIx:    ri*perKind + ki,
					kind:     kind,
					avail:    ^uint64(0) >> (64 - cfg.BricksPerBox),
					bricks:   make([]units.Amount, cfg.BricksPerBox),
					brickCap: brickCap,
				}
				for bi := range box.bricks {
					box.bricks[bi] = brickCap
				}
				box.free = box.Capacity()
				c.vis[kind][box.visIx] = box.free
				rack.boxes = append(rack.boxes, box)
				rack.byKind[kind] = append(rack.byKind[kind], box)
				c.boxes = append(c.boxes, box)
				c.free[kind] += box.free
				c.cap[kind] += box.free
				idx++
			}
		}
		c.racks = append(c.racks, rack)
	}
	c.initCandidateIndex()
	return c, nil
}

// syncVis refreshes b's slot in the visible-free vectors after a mutation
// of its free amount or failure flag. It is the single write point of the
// structure-of-arrays mirror.
func (c *Cluster) syncVis(b *Box) { c.vis[b.kind][b.visIx] = b.Free() }

// Config returns the configuration the cluster was built from.
func (c *Cluster) Config() Config { return c.cfg }

// Racks returns the cluster's racks in index order (shared slice).
func (c *Cluster) Racks() []*Rack { return c.racks }

// Rack returns rack i.
func (c *Cluster) Rack(i int) *Rack { return c.racks[i] }

// NumRacks returns the number of racks.
func (c *Cluster) NumRacks() int { return len(c.racks) }

// Boxes returns every box in rack-major order (shared slice).
func (c *Cluster) Boxes() []*Box { return c.boxes }

// TotalCapacity returns the cluster-wide capacity of kind k.
func (c *Cluster) TotalCapacity(k units.Resource) units.Amount { return c.cap[k] }

// TotalFree returns the cluster-wide free amount of kind k.
func (c *Cluster) TotalFree(k units.Resource) units.Amount { return c.free[k] }

// Utilization returns the used fraction of kind k in [0,1].
func (c *Cluster) Utilization(k units.Resource) float64 {
	if c.cap[k] == 0 {
		return 0
	}
	return float64(c.cap[k]-c.free[k]) / float64(c.cap[k])
}

// ContentionRatio returns the paper's CR for a request component: the
// amount requested over the total currently available amount of that
// resource. A ratio > 1 means the cluster cannot satisfy the component at
// all; an infinite ratio (no free resource) is reported as a large finite
// number so comparisons stay total.
func (c *Cluster) ContentionRatio(k units.Resource, req units.Amount) float64 {
	if req <= 0 {
		return 0
	}
	if c.free[k] == 0 {
		return float64(req) * 1e9
	}
	return float64(req) / float64(c.free[k])
}

// Allocate is AllocateInto returning the placement by value. It only
// delegates; its one non-test caller is bench/layers.go.
func (c *Cluster) Allocate(box *Box, amount units.Amount) (Placement, error) {
	var p Placement
	err := c.AllocateInto(box, amount, &p)
	return p, err
}

// AllocateInto carves amount of box's kind out of box into *dst, updating
// the box, its free-vector slot and the cluster totals. The brick shares
// are appended onto dst.Shares[:0] — usually the buffer of a recycled
// placement record, so steady-state allocation reuses the record's memory
// instead of growing a fresh slice per placement — and the placement is
// written into *dst in place. On error nothing changes, *dst included.
func (c *Cluster) AllocateInto(box *Box, amount units.Amount, dst *Placement) error {
	if err := box.allocate(amount, dst); err != nil {
		return err
	}
	c.free[box.kind] -= amount
	c.syncVis(box)
	return nil
}

// Release is ReleaseFrom for a placement passed by value. It only
// delegates; its one non-test caller is bench/layers.go.
func (c *Cluster) Release(p Placement) { c.ReleaseFrom(&p) }

// ReleaseFrom returns the resources of the placement *p to its box and
// the cluster totals, reading *p where it lies; *p itself is left as it
// was, for its owner to clear. Releasing the zero placement is a no-op.
// Releasing into a failed box is legal (the VM departs either way) but
// the freed capacity only rejoins the cluster totals when the box is
// restored.
func (c *Cluster) ReleaseFrom(p *Placement) {
	if p.IsZero() {
		return
	}
	b := p.Box
	b.release(p)
	if !b.failed {
		c.free[b.kind] += p.Total
		c.syncVis(b)
		c.noteRackIncrease(b)
	}
}

// SetBoxFailed marks a box failed or restores it. A failed box accepts no
// new placements and reports zero free capacity; existing placements stay
// accounted and may still be released (the freed capacity rejoins the
// totals at repair time — see Release). Toggling is idempotent.
//
// Failing a box leaves the candidate tree alone: its bound for the rack
// stays a valid upper bound. Repair sets the bound to the rack's exact
// maximum, like any other increase.
func (c *Cluster) SetBoxFailed(b *Box, failed bool) {
	if b.failed == failed {
		return
	}
	b.failed = failed
	c.syncVis(b)
	if failed {
		c.free[b.kind] -= b.free
	} else {
		c.free[b.kind] += b.free
		c.noteRackIncrease(b)
	}
}

// Preoccupy permanently consumes amount from the given box; it is used by
// tests and the toy-example experiments to reconstruct the paper's Table 3
// availability state. Nothing holds the placement, so it is never released.
func (c *Cluster) Preoccupy(rack, kindIx int, kind units.Resource, amount units.Amount) error {
	if rack < 0 || rack >= len(c.racks) {
		return fmt.Errorf("topology: rack %d out of range", rack)
	}
	boxes := c.racks[rack].BoxesOf(kind)
	if kindIx < 0 || kindIx >= len(boxes) {
		return fmt.Errorf("topology: %v box %d out of range in rack %d", kind, kindIx, rack)
	}
	var p Placement
	return c.AllocateInto(boxes[kindIx], amount, &p)
}

// Stranded returns, per resource, the free amount sitting in racks that
// cannot host the reference request as a whole — capacity that exists but
// is unusable for a typical VM because a complementary resource (or a
// large-enough single box) is missing in that rack. Stranded resources
// are the paper's core motivation (§1) and reducing them is RISA-BF's
// stated goal (§4).
func (c *Cluster) Stranded(ref units.Vector) units.Vector {
	var out units.Vector
	for _, rack := range c.racks {
		if rack.FitsWholeVM(ref) {
			continue
		}
		for _, k := range units.Resources() {
			out[k] += rack.Free(k)
		}
	}
	return out
}

// StrandedFraction returns Stranded as a fraction of the cluster's total
// free amount per resource (0 when nothing is free).
func (c *Cluster) StrandedFraction(ref units.Vector) [units.NumResources]float64 {
	stranded := c.Stranded(ref)
	var out [units.NumResources]float64
	for _, k := range units.Resources() {
		if c.free[k] > 0 {
			out[k] = float64(stranded[k]) / float64(c.free[k])
		}
	}
	return out
}

// CheckInvariants verifies all bookkeeping identities: per-box free equals
// the sum of brick frees, 0 ≤ free ≤ capacity everywhere, a box's
// availability mask names exactly its bricks with free > 0, and cluster
// totals equal the sums over boxes. It is meant for tests and returns the
// first violation found.
func (c *Cluster) CheckInvariants() error {
	var free, cap units.Vector
	for _, b := range c.boxes {
		var brickFree units.Amount
		for i, f := range b.bricks {
			if f < 0 || f > b.brickCap {
				return fmt.Errorf("%v brick %d free %d out of [0,%d]", b, i, f, b.brickCap)
			}
			if set := b.avail&(1<<uint(i)) != 0; set != (f > 0) {
				return fmt.Errorf("%v brick %d free %d but mask bit %v", b, i, f, set)
			}
			brickFree += f
		}
		if b.avail>>uint(len(b.bricks)) != 0 {
			return fmt.Errorf("%v mask %#x names bricks past %d", b, b.avail, len(b.bricks))
		}
		if brickFree != b.free {
			return fmt.Errorf("%v cached free %d != brick sum %d", b, b.free, brickFree)
		}
		if !b.failed {
			free[b.kind] += b.free
		}
		cap[b.kind] += b.Capacity()
		// The structure-of-arrays mirror must hold exactly the box's
		// visible free amount at its dense per-kind id.
		if want := c.cfg.BoxKindCount(b.kind)*b.rack + b.kindIx; b.visIx != want {
			return fmt.Errorf("%v dense id %d != %d", b, b.visIx, want)
		}
		if got := c.vis[b.kind][b.visIx]; got != b.Free() {
			return fmt.Errorf("%v free vector holds %d, box visible free is %d", b, got, b.Free())
		}
	}
	for _, k := range units.Resources() {
		if len(c.vis[k]) != c.cfg.BoxKindCount(k)*len(c.racks) {
			return fmt.Errorf("%v free vector has %d slots for %d boxes",
				k, len(c.vis[k]), c.cfg.BoxKindCount(k)*len(c.racks))
		}
	}
	if free != c.free {
		return fmt.Errorf("cluster free %v != box sum %v", c.free, free)
	}
	if cap != c.cap {
		return fmt.Errorf("cluster capacity %v != box sum %v", c.cap, cap)
	}
	// The cluster-level candidate tree must never under-estimate a rack:
	// a too-small bound would hide a qualifying rack from
	// NextRackWith/NextRackFits and change placements. maxFree reads the
	// free vectors just checked against the boxes, so it is the true max.
	for _, rack := range c.racks {
		for _, k := range units.Resources() {
			if ub, top := c.cidx[k].leaf(rack.index), rack.maxFree(k); ub < top {
				return fmt.Errorf("rack %d %v candidate bound %d < true max %d", rack.index, k, ub, top)
			}
		}
	}
	for _, k := range units.Resources() {
		if err := c.cidx[k].checkTree(); err != nil {
			return fmt.Errorf("%v candidate tree: %w", k, err)
		}
	}
	return nil
}
