package topology

import (
	"math/rand"
	"testing"

	"risa/internal/units"
)

// clusterOracle is an independent brute-force model of the cluster's
// free-capacity state: per box it tracks only (free, failed), never
// reading the Box counters or the vis vectors it is checked against. The
// box granularity is exact — allocate spreads across bricks first-fit, so
// it succeeds iff the box is healthy and holds the amount — which makes
// every query below derivable by a direct scan.
type clusterOracle struct {
	free   map[*Box]units.Amount
	failed map[*Box]bool
}

func newClusterOracle(c *Cluster) *clusterOracle {
	o := &clusterOracle{
		free:   make(map[*Box]units.Amount),
		failed: make(map[*Box]bool),
	}
	for _, b := range c.Boxes() {
		o.free[b] = b.Capacity()
	}
	return o
}

// visible is the amount a scheduler may still place on b: the unallocated
// amount, or zero while failed.
func (o *clusterOracle) visible(b *Box) units.Amount {
	if o.failed[b] {
		return 0
	}
	return o.free[b]
}

// canAllocate predicts whether Cluster.Allocate(b, amount) succeeds.
func (o *clusterOracle) canAllocate(b *Box, amount units.Amount) bool {
	return amount > 0 && !o.failed[b] && amount <= o.free[b]
}

func (o *clusterOracle) allocate(b *Box, amount units.Amount) { o.free[b] -= amount }
func (o *clusterOracle) release(p Placement)                  { o.free[p.Box] += p.Total }
func (o *clusterOracle) setFailed(b *Box, failed bool)        { o.failed[b] = failed }

// maxFree returns one rack's maximum visible free for kind k and the box
// holding it (first-in-kind-order among equals, MaxFree's tie-break).
func (o *clusterOracle) maxFree(rack *Rack, k units.Resource) (units.Amount, *Box) {
	var max units.Amount
	var best *Box
	for _, b := range rack.BoxesOf(k) {
		if f := o.visible(b); f > max {
			max, best = f, b
		}
	}
	return max, best
}

// check compares every SoA/index query surface against the model: the
// rack and cluster visible-free vectors element for element, the rack
// totals and maxima, and the two cluster-level candidate queries.
func (o *clusterOracle) check(t *testing.T, c *Cluster, op int, need units.Amount) {
	t.Helper()
	for _, k := range units.Resources() {
		vec := c.vis[k]
		if want := c.NumRacks() * c.Config().BoxKindCount(k); len(vec) != want {
			t.Fatalf("op %d: vis[%v] has %d entries, want %d", op, k, len(vec), want)
		}
		off := 0
		firstWith := -1
		for _, rack := range c.Racks() {
			rv := rack.FreeVecOf(k)
			var total units.Amount
			for i, b := range rack.BoxesOf(k) {
				f := o.visible(b)
				total += f
				if rv[i] != f {
					t.Fatalf("op %d: rack %d FreeVecOf(%v)[%d] = %d, oracle %d",
						op, rack.Index(), k, i, rv[i], f)
				}
				if vec[off+i] != f {
					t.Fatalf("op %d: vis[%v][%d] = %d, oracle %d", op, k, off+i, vec[off+i], f)
				}
			}
			off += len(rack.BoxesOf(k))
			if got := rack.Free(k); got != total {
				t.Fatalf("op %d: rack %d Free(%v) = %d, oracle %d", op, rack.Index(), k, got, total)
			}
			max, best := o.maxFree(rack, k)
			if gm, gb := rack.MaxFree(k); gm != max || gb != best {
				t.Fatalf("op %d: rack %d MaxFree(%v) = (%d, %v), oracle (%d, %v)",
					op, rack.Index(), k, gm, gb, max, best)
			}
			if firstWith < 0 && max >= need {
				firstWith = rack.Index()
			}
		}
		if got := c.NextRackWith(k, need, 0); got != firstWith {
			t.Fatalf("op %d: NextRackWith(%v, %d, 0) = %d, oracle %d", op, k, need, got, firstWith)
		}
	}
	// NextRackFits against a direct every-kind scan, for a request vector
	// demanding `need` of everything and for one with a zero component
	// (zero requests must not constrain).
	for _, req := range []units.Vector{
		units.Vec(need, need, need),
		units.Vec(0, need, need),
	} {
		fits := -1
		for _, rack := range c.Racks() {
			ok := true
			for _, k := range units.Resources() {
				if req[k] == 0 {
					continue
				}
				if max, _ := o.maxFree(rack, k); max < req[k] {
					ok = false
					break
				}
			}
			if ok {
				fits = rack.Index()
				break
			}
		}
		if got := c.NextRackFits(req, 0); got != fits {
			t.Fatalf("op %d: NextRackFits(%v, 0) = %d, oracle %d", op, req, got, fits)
		}
	}
}

// TestClusterAgainstOracle drives a small cluster through seeded random
// alloc/release/fail/heal sequences and checks every query surface
// against the independent model after each operation — the differential
// property pin behind the SoA layout: Free/MaxFree/vis/FreeVecOf/
// NextRackWith/NextRackFits answer exactly as a scan of (capacity −
// allocated, failed) pairs says they must, no matter how lazily the
// candidate tree repairs itself underneath.
func TestClusterAgainstOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42, 20260808} {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Racks = 4
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := newClusterOracle(c)
		boxes := c.Boxes()
		var live []Placement
		for op := 0; op < 400; op++ {
			b := boxes[rng.Intn(len(boxes))]
			switch rng.Intn(5) {
			case 0, 1: // allocate, biased so the cluster actually fills
				amount := units.Amount(rng.Int63n(int64(b.Capacity()))) + 1
				want := o.canAllocate(b, amount)
				p, err := c.Allocate(b, amount)
				if got := err == nil; got != want {
					t.Fatalf("seed %d op %d: Allocate(%v, %d) success = %v, oracle %v (err %v)",
						seed, op, b, amount, got, want, err)
				}
				if err == nil {
					o.allocate(b, amount)
					live = append(live, p)
				}
			case 2: // release a live placement (failed boxes included)
				if len(live) > 0 {
					j := rng.Intn(len(live))
					c.Release(live[j])
					o.release(live[j])
					live = append(live[:j], live[j+1:]...)
				}
			case 3:
				c.SetBoxFailed(b, true)
				o.setFailed(b, true)
			case 4:
				c.SetBoxFailed(b, false)
				o.setFailed(b, false)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			o.check(t, c, op, units.Amount(rng.Int63n(int64(cfg.BoxCapacity(units.CPU))+8)))
		}
	}
}
