package topology

import (
	"fmt"

	"risa/internal/units"
)

// Brick is the smallest pooling granularity inside a box. All communication
// within a brick is electronic; the optical fabric starts at the brick's
// link to the box switch.
type Brick struct {
	capacity units.Amount
	free     units.Amount
}

// Capacity returns the brick's total native amount.
func (b *Brick) Capacity() units.Amount { return b.capacity }

// Free returns the brick's currently unallocated native amount.
func (b *Brick) Free() units.Amount { return b.free }

// Box is a chassis holding a single resource kind, divided into bricks.
// A VM's share of one resource always comes from a single box (the paper
// restricts requests to at most one box worth of each resource) but may
// span several bricks inside it.
type Box struct {
	rack   int            // rack index within the cluster
	index  int            // box index within the rack (across all kinds)
	kindIx int            // box index among boxes of the same kind in the rack
	visIx  int            // dense per-kind cluster id: rack*BoxKindCount(kind)+kindIx
	kind   units.Resource // the single resource this box holds
	bricks []Brick
	free   units.Amount // cached sum of brick free amounts
	cap    units.Amount // sum of brick capacities
	failed bool         // failed boxes accept no new placements
}

// Rack returns the index of the rack containing the box.
func (b *Box) Rack() int { return b.rack }

// Index returns the box's position within its rack, counted across all
// resource kinds (0 .. BoxesPerRack-1).
func (b *Box) Index() int { return b.index }

// KindIndex returns the box's position among same-kind boxes in its rack.
func (b *Box) KindIndex() int { return b.kindIx }

// Kind returns the resource kind the box holds.
func (b *Box) Kind() units.Resource { return b.kind }

// Brick returns a read-only view of brick i.
func (b *Box) Brick(i int) *Brick { return &b.bricks[i] }

// Capacity returns the box's total native amount.
func (b *Box) Capacity() units.Amount { return b.cap }

// Free returns the native amount available to new placements: the
// unallocated amount, or zero while the box is failed.
func (b *Box) Free() units.Amount {
	if b.failed {
		return 0
	}
	return b.free
}

// Used returns the allocated native amount.
func (b *Box) Used() units.Amount { return b.cap - b.free }

// Failed reports whether the box is marked failed (see Cluster.SetBoxFailed).
func (b *Box) Failed() bool { return b.failed }

// String identifies the box for logs and errors.
func (b *Box) String() string {
	return fmt.Sprintf("%v-box r%d/b%d", b.kind, b.rack, b.index)
}

// BrickShare records how much of a placement landed on one brick.
type BrickShare struct {
	Brick  int
	Amount units.Amount
}

// Placement records a compute allocation inside a single box so it can be
// released later. The zero Placement is "nothing allocated".
type Placement struct {
	Box    *Box
	Shares []BrickShare
	Total  units.Amount
}

// IsZero reports whether the placement holds no allocation.
func (p Placement) IsZero() bool { return p.Box == nil || p.Total == 0 }

// allocate carves amount out of the box, greedily filling bricks in index
// order (first-fit across bricks). It returns the per-brick shares —
// appended onto buf, which callers on the zero-allocation hot path pass in
// from a recycled placement record (nil is fine and simply allocates) — or
// an error if the box lacks capacity; on error the box is unchanged.
func (b *Box) allocate(amount units.Amount, buf []BrickShare) (Placement, error) {
	if amount <= 0 {
		return Placement{}, fmt.Errorf("topology: allocation amount must be positive, got %d", amount)
	}
	if b.failed {
		return Placement{}, fmt.Errorf("topology: %v is failed", b)
	}
	if amount > b.free {
		return Placement{}, fmt.Errorf("topology: %v has %d %s free, need %d",
			b, b.free, b.kind.Native(), amount)
	}
	p := Placement{Box: b, Total: amount, Shares: buf}
	remaining := amount
	for i := range b.bricks {
		if remaining == 0 {
			break
		}
		br := &b.bricks[i]
		if br.free == 0 {
			continue
		}
		take := br.free
		if take > remaining {
			take = remaining
		}
		br.free -= take
		remaining -= take
		p.Shares = append(p.Shares, BrickShare{Brick: i, Amount: take})
	}
	if remaining != 0 {
		// Cannot happen while free is the sum of brick free amounts;
		// guard against bookkeeping bugs loudly.
		panic(fmt.Sprintf("topology: %v free counter out of sync (short %d)", b, remaining))
	}
	b.free -= amount
	return p, nil
}

// release returns a placement's amounts to their bricks. It panics if the
// placement does not belong to this box or would overfill a brick, since
// that always indicates double-release or cross-box corruption.
func (b *Box) release(p Placement) {
	if p.Box != b {
		panic(fmt.Sprintf("topology: releasing placement of %v on %v", p.Box, b))
	}
	for _, s := range p.Shares {
		br := &b.bricks[s.Brick]
		if br.free+s.Amount > br.capacity {
			panic(fmt.Sprintf("topology: releasing %d onto brick %d of %v overflows capacity", s.Amount, s.Brick, b))
		}
		br.free += s.Amount
	}
	b.free += p.Total
}
