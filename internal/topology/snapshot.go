package topology

import (
	"fmt"

	"risa/internal/units"
)

// RestorePlacement re-carves an exact recorded brick-share pattern out of
// box b, updating the box, rack-index and cluster totals the same way
// AllocateInto does. It is the replay primitive snapshot restoration is
// built on: Box.allocate is first-fit across bricks and therefore cannot
// reproduce an arbitrary historical share pattern, while RestorePlacement
// reproduces the bricks bit-for-bit. The box must be healthy — restore
// replays placements onto a pristine cluster first and applies failures
// afterwards. Like AllocateInto, the placement's Shares are appended onto
// buf, the emptied buffer of the record the placement goes back into. On
// error the box is left unchanged.
func (c *Cluster) RestorePlacement(b *Box, shares, buf []BrickShare) (Placement, error) {
	if b.failed {
		return Placement{}, fmt.Errorf("topology: cannot restore placement onto failed %v", b)
	}
	if len(shares) == 0 {
		return Placement{}, fmt.Errorf("topology: cannot restore an empty placement onto %v", b)
	}
	var total units.Amount
	for n, s := range shares {
		if s.Brick < 0 || s.Brick >= len(b.bricks) {
			rollbackShares(b, shares[:n])
			return Placement{}, fmt.Errorf("topology: restored share names brick %d of %v (has %d)", s.Brick, b, len(b.bricks))
		}
		br := &b.bricks[s.Brick]
		if s.Amount <= 0 || s.Amount > br.free {
			rollbackShares(b, shares[:n])
			return Placement{}, fmt.Errorf("topology: restored share of %d does not fit brick %d of %v (free %d)",
				s.Amount, s.Brick, b, br.free)
		}
		br.free -= s.Amount
		total += s.Amount
	}
	b.free -= total
	c.free[b.kind] -= total
	c.syncVis(b)
	c.racks[b.rack].noteDecrease(b, total)
	return Placement{Box: b, Total: total, Shares: append(buf, shares...)}, nil
}

// rollbackShares undoes the brick carving of a partially applied restore.
// Only bricks were touched so far; box and cluster totals are updated
// once at the end of RestorePlacement.
func rollbackShares(b *Box, applied []BrickShare) {
	for _, s := range applied {
		b.bricks[s.Brick].free += s.Amount
	}
}

// FailedBoxes returns the rack-major global indices (positions in Boxes)
// of every currently failed box, for snapshot capture.
func (c *Cluster) FailedBoxes() []int {
	var out []int
	for i, b := range c.boxes {
		if b.failed {
			out = append(out, i)
		}
	}
	return out
}
