package topology

import (
	"testing"

	"risa/internal/units"
)

// FuzzClusterIndex drives a small cluster through an arbitrary
// allocate/release/fail/heal sequence decoded from the fuzz input and
// checks, after every operation, that (a) CheckInvariants holds — which
// includes the free vectors and the cluster candidate tree — and (b) the
// two query tiers agree with a brute-force rescan of the boxes:
// MaxFree/Free per rack and NextRackWith over the whole cluster. The
// boxes' brick counters are the ground truth (CheckInvariants ties the
// cached sums to them), so any divergence the fuzzer finds is an index
// maintenance bug, not an oracle artifact.
//
// The seed corpus covers every opcode and the failed-then-healed release
// orders; CI additionally runs a 30 s fuzz smoke (see ci.yml).
func FuzzClusterIndex(f *testing.F) {
	// One op is three bytes: opcode, unit selector, amount selector.
	f.Add([]byte{0, 0, 10, 0, 1, 200, 1, 0, 0})                  // alloc, alloc, release
	f.Add([]byte{0, 3, 255, 2, 3, 0, 1, 0, 0, 3, 3, 0})          // alloc, fail, release-into-failed, heal
	f.Add([]byte{2, 0, 0, 3, 0, 0, 0, 0, 50, 1, 0, 0})           // fail, heal, alloc, release
	f.Add([]byte{0, 2, 128, 0, 2, 128, 2, 2, 0, 2, 2, 0})        // double-fail idempotence
	f.Add([]byte{3, 5, 0, 3, 5, 0, 0, 5, 64, 2, 5, 0})           // heal-healthy no-op, alloc, fail
	f.Add([]byte{0, 1, 40, 0, 0, 90, 2, 0, 0, 3, 0, 0, 1, 0, 0}) // stale-bound fail/heal cycle
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := DefaultConfig()
		cfg.Racks = 3
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		boxes := c.Boxes()
		var live []Placement
		for i := 0; i+2 < len(ops); i += 3 {
			op, sel, amt := ops[i], ops[i+1], ops[i+2]
			switch op % 4 {
			case 0: // allocate: amount scaled to the box capacity, never 0
				b := boxes[int(sel)%len(boxes)]
				amount := units.Amount(amt)%b.Capacity() + 1
				if p, err := c.Allocate(b, amount); err == nil {
					live = append(live, p)
				}
			case 1: // release a live placement (covers failed boxes too)
				if len(live) > 0 {
					j := int(sel) % len(live)
					c.Release(live[j])
					live = append(live[:j], live[j+1:]...)
				}
			case 2:
				c.SetBoxFailed(boxes[int(sel)%len(boxes)], true)
			case 3:
				c.SetBoxFailed(boxes[int(sel)%len(boxes)], false)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i/3, err)
			}
			checkIndexAgainstBruteForce(t, c, i/3, units.Amount(amt)+1)
		}
	})
}

// checkIndexAgainstBruteForce compares every indexed query against a
// direct scan of the boxes: the rack totals and maxima, the SoA
// visible-free vectors (rack views and the cluster-wide slice, element
// for element against Free()), the candidate tree behind NextRackWith,
// and the whole-VM leapfrog behind NextRackFits.
func checkIndexAgainstBruteForce(t *testing.T, c *Cluster, op int, need units.Amount) {
	t.Helper()
	for _, k := range units.Resources() {
		firstFit := -1
		vec := c.vis[k]
		off := 0
		for _, rack := range c.Racks() {
			var total, max units.Amount
			var best *Box
			rv := rack.FreeVecOf(k)
			for i, b := range rack.BoxesOf(k) {
				f := b.Free()
				total += f
				if f > max {
					max, best = f, b
				}
				if rv[i] != f {
					t.Fatalf("op %d: rack %d FreeVecOf(%v)[%d] = %d, Free %d",
						op, rack.Index(), k, i, rv[i], f)
				}
				if vec[off+i] != f {
					t.Fatalf("op %d: vis[%v][%d] = %d, Free %d", op, k, off+i, vec[off+i], f)
				}
			}
			off += len(rack.BoxesOf(k))
			if got := rack.Free(k); got != total {
				t.Fatalf("op %d: rack %d Free(%v) = %d, scan %d", op, rack.Index(), k, got, total)
			}
			if gm, gb := rack.MaxFree(k); gm != max || gb != best {
				t.Fatalf("op %d: rack %d MaxFree(%v) = (%d, %v), scan (%d, %v)",
					op, rack.Index(), k, gm, gb, max, best)
			}
			if firstFit < 0 && max >= need {
				firstFit = rack.Index()
			}
		}
		if got := c.NextRackWith(k, need, 0); got != firstFit {
			t.Fatalf("op %d: NextRackWith(%v, %d) = %d, scan %d", op, k, need, got, firstFit)
		}
	}
	// NextRackFits' leapfrog against a linear FitsWholeVM scan (the rack
	// maxima it reads were verified against the box scan above).
	req := units.Vec(need, need, need)
	want := -1
	for _, rack := range c.Racks() {
		if rack.FitsWholeVM(req) {
			want = rack.Index()
			break
		}
	}
	if got := c.NextRackFits(req, 0); got != want {
		t.Fatalf("op %d: NextRackFits(%v, 0) = %d, scan %d", op, req, got, want)
	}
}
