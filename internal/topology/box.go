package topology

import (
	"fmt"
	"math/bits"

	"risa/internal/units"
)

// Box is a chassis holding a single resource kind, divided into bricks of
// equal capacity. A brick is the smallest pooling granularity: all
// communication within it is electronic, and the optical fabric starts at
// its link to the box switch. A VM's share of one resource always comes
// from a single box (the paper restricts requests to at most one box worth
// of each resource) but may span several bricks inside it.
type Box struct {
	rack     int            // rack index within the cluster
	index    int            // box index within the rack (across all kinds)
	kindIx   int            // box index among boxes of the same kind in the rack
	visIx    int            // dense per-kind cluster id: rack*BoxKindCount(kind)+kindIx
	kind     units.Resource // the single resource this box holds
	avail    uint64         // bit i set while bricks[i] > 0 (hence ≤ 64 bricks)
	bricks   []units.Amount // free amount per brick
	brickCap units.Amount   // capacity of every brick
	free     units.Amount   // cached sum of brick free amounts
	failed   bool           // failed boxes accept no new placements
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

// Capacity returns the box's total native amount.
func (b *Box) Capacity() units.Amount { return b.brickCap * units.Amount(len(b.bricks)) }

// Free returns the native amount available to new placements: the
// unallocated amount, or zero while the box is failed.
func (b *Box) Free() units.Amount {
	if b.failed {
		return 0
	}
	return b.free
}

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

// allocate carves amount out of the box into *dst, greedily filling
// bricks in index order (first-fit across bricks): it walks the set bits
// of the availability mask, so drained bricks cost nothing. The per-brick
// shares are appended onto dst.Shares[:0], so a recycled placement record
// reuses its buffer (a nil one simply allocates). The placement is
// written into *dst field by field: returned by value, its fresh 8-byte
// field stores were read back by 16-byte moves, which stall store
// forwarding. On error the box and *dst are unchanged.
func (b *Box) allocate(amount units.Amount, dst *Placement) error {
	if amount <= 0 || b.failed || amount > b.free {
		return b.refusal(amount)
	}
	shares := dst.Shares[:0]
	remaining := amount
	for m := b.avail; m != 0 && remaining != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		take := min(b.bricks[i], remaining)
		b.bricks[i] -= take
		remaining -= take
		if b.bricks[i] == 0 {
			b.avail &^= 1 << uint(i)
		}
		shares = append(shares, BrickShare{Brick: i, Amount: take})
	}
	if remaining != 0 {
		// Cannot happen while free is the sum of brick free amounts;
		// guard against bookkeeping bugs loudly.
		panic(fmt.Sprintf("topology: %v free counter out of sync (short %d)", b, remaining))
	}
	b.free -= amount
	dst.Box = b
	dst.Shares = shares
	dst.Total = amount
	return nil
}

// refusal explains why allocate refused amount: the cold half of
// allocate, so the error formatting stays out of its body.
func (b *Box) refusal(amount units.Amount) error {
	switch {
	case amount <= 0:
		return fmt.Errorf("topology: allocation amount must be positive, got %d", amount)
	case b.failed:
		return fmt.Errorf("topology: %v is failed", b)
	default:
		return fmt.Errorf("topology: %v has %d %s free, need %d",
			b, b.free, b.kind.Native(), amount)
	}
}

// release returns a placement's amounts to their bricks, reading the
// placement where it lies. It panics if the placement does not belong to
// this box or would overfill a brick, since that always indicates
// double-release or cross-box corruption.
func (b *Box) release(p *Placement) {
	if p.Box != b {
		panic(fmt.Sprintf("topology: releasing placement of %v on %v", p.Box, b))
	}
	for _, s := range p.Shares {
		f := b.bricks[s.Brick] + s.Amount
		if f > b.brickCap {
			panic(fmt.Sprintf("topology: releasing %d onto brick %d of %v overflows capacity", s.Amount, s.Brick, b))
		}
		b.bricks[s.Brick] = f
		b.avail |= 1 << uint(s.Brick)
	}
	b.free += p.Total
}
