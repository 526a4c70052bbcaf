package sim

import (
	"reflect"
	"testing"

	"risa/internal/core"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// fuzzInstance is one datacenter + scheduler under the fuzz script.
type fuzzInstance struct {
	st   *sched.State
	sch  sched.Scheduler
	live []*sched.Assignment
}

func newFuzzInstance(t *testing.T) *fuzzInstance {
	t.Helper()
	cfg := topology.DefaultConfig()
	cfg.Racks = 3
	st, err := sched.NewState(cfg, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &fuzzInstance{st: st, sch: core.New(st)}
}

// fuzzOps is how many opcodes step decodes; an op byte selects op % fuzzOps.
const fuzzOps = 7

// step applies one decoded op. Both instances run the same script, so
// any outcome divergence after the snapshot/restore split is a
// roundtrip bug.
func (in *fuzzInstance) step(t *testing.T, op, sel, amt byte, vmID int) (placed bool, sig string) {
	t.Helper()
	boxes := in.st.Cluster.Boxes()
	switch op % fuzzOps {
	case 0: // schedule a VM shaped by amt
		vm := workload.VM{
			ID: vmID, Lifetime: 1000,
			Req: units.Vec(1+units.Amount(amt)%16, 1+units.Amount(sel)%16, 32),
		}
		a, err := in.sch.Schedule(vm)
		if err != nil {
			return false, "drop"
		}
		in.live = append(in.live, a)
		return true, placementSig(in.st, a)
	case 1: // release a live VM
		if len(in.live) > 0 {
			j := int(sel) % len(in.live)
			in.sch.Release(in.live[j])
			in.live = append(in.live[:j], in.live[j+1:]...)
		}
	case 2: // fail a box
		in.st.Cluster.SetBoxFailed(boxes[int(sel)%len(boxes)], true)
	case 3: // heal a box
		in.st.Cluster.SetBoxFailed(boxes[int(sel)%len(boxes)], false)
	case 4: // fail or heal a box uplink
		ref := network.LinkRef{
			Tier: network.BoxUplink,
			Rack: int(sel) % in.st.Cluster.NumRacks(),
			Box:  int(amt) % in.st.Cluster.Config().BoxesPerRack(),
		}
		if l, err := in.st.Fabric.LinkByRef(ref); err == nil {
			in.st.Fabric.SetLinkFailed(l, amt%2 == 0)
		}
	case 5: // displace a live VM through the scheduler
		if len(in.live) > 0 {
			j := int(sel) % len(in.live)
			a := in.live[j]
			if !core.Displace(in.st, in.sch, a) {
				// Unrecoverable: the VM is gone; drop the record.
				in.live = append(in.live[:j], in.live[j+1:]...)
			}
		}
	case 6: // hold a live VM, release it and replay it in place
		if len(in.live) > 0 {
			in.holdReplay(t, in.live[int(sel)%len(in.live)])
		}
	}
	return false, ""
}

// recordHoldings is what a record holds, read straight off it: boxes,
// brick shares, and each circuit's bandwidth and *Link pointers.
type recordHoldings struct {
	boxes  [units.NumResources]*topology.Box
	shares [units.NumResources][]topology.BrickShare
	bw     [2]units.Bandwidth
	links  [2][]*network.Link
}

func recordHoldingsOf(a *sched.Assignment) recordHoldings {
	var h recordHoldings
	for r, p := range [...]topology.Placement{a.CPU, a.RAM, a.STO} {
		h.boxes[r] = p.Box
		h.shares[r] = append([]topology.BrickShare(nil), p.Shares...)
	}
	for i, fl := range [...]*network.Flow{a.CPURAMFlow, a.RAMSTOFlow} {
		if fl != nil {
			h.bw[i] = fl.BW()
			h.links[i] = append([]*network.Link(nil), fl.Links()...)
		}
	}
	return h
}

// holdReplay holds a's exact holdings, releases them and replays them into
// the same record, then checks the record against what it held before,
// read off the record itself: the twin comparison alone would miss a
// Hold/Replay bug both instances share. A VM on failed hardware is left
// alone — Replay refuses failed boxes and links, as preemption's
// eligibility filter knows.
func (in *fuzzInstance) holdReplay(t *testing.T, a *sched.Assignment) {
	t.Helper()
	if !assignmentEligible(a, -1) {
		return
	}
	want := recordHoldingsOf(a)
	var held sched.AssignmentState
	in.st.Hold(a, &held)
	in.st.ReleaseVMKeep(a)
	if _, err := in.st.Replay(a, &held); err != nil {
		t.Fatalf("VM %d: replay into its own record: %v", a.VM.ID, err)
	}
	if got := recordHoldingsOf(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("VM %d: replayed holdings differ:\n got %+v\nwant %+v", a.VM.ID, got, want)
	}
}

// check asserts the instance's internal consistency.
func (in *fuzzInstance) check(t *testing.T, op int) {
	t.Helper()
	if err := in.st.Cluster.CheckInvariants(); err != nil {
		t.Fatalf("op %d: cluster: %v", op, err)
	}
	if err := in.st.Fabric.CheckInvariants(); err != nil {
		t.Fatalf("op %d: fabric: %v", op, err)
	}
}

// oracleEqual compares two instances exhaustively: every box's free
// space brute-forced from the boxes slice, the fabric aggregates, and
// the full captured state (exact brick shares, flow paths, failures and
// scheduler cursors).
func oracleEqual(t *testing.T, op int, a, b *fuzzInstance) {
	t.Helper()
	ab, bb := a.st.Cluster.Boxes(), b.st.Cluster.Boxes()
	for i := range ab {
		if ab[i].Free() != bb[i].Free() || ab[i].Failed() != bb[i].Failed() {
			t.Fatalf("op %d: box %d: free/failed %d/%v vs %d/%v",
				op, i, ab[i].Free(), ab[i].Failed(), bb[i].Free(), bb[i].Failed())
		}
	}
	af, bf := a.st.Fabric, b.st.Fabric
	if af.IntraRackFree() != bf.IntraRackFree() ||
		af.InterRackFree() != bf.InterRackFree() ||
		af.InterPodFree() != bf.InterPodFree() {
		t.Fatalf("op %d: fabric aggregates diverge", op)
	}
	sa, err := CaptureState(a.st, a.sch, a.live)
	if err != nil {
		t.Fatalf("op %d: capture a: %v", op, err)
	}
	sb, err := CaptureState(b.st, b.sch, b.live)
	if err != nil {
		t.Fatalf("op %d: capture b: %v", op, err)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("op %d: captured states diverge:\na: %+v\nb: %+v", op, sa, sb)
	}
}

// FuzzSnapshotRoundtrip drives one instance through an arbitrary
// alloc/release/fail/heal/displace/hold-replay script, snapshots it mid-script via
// CaptureState, restores the snapshot into a second pristine instance,
// and then runs the remainder of the script on both — asserting after
// every op that both instances hold (CheckInvariants) and agree with
// each other down to exact brick shares, link reservations and
// scheduler cursors. Any divergence is a snapshot roundtrip bug: the
// restored instance failed to reproduce some decision-relevant state.
func FuzzSnapshotRoundtrip(f *testing.F) {
	// One op is three bytes: opcode, selector, amount.
	f.Add([]byte{0, 0, 10, 0, 1, 200, 1, 0, 0, 0, 2, 30})                 // alloc ×2, release, alloc
	f.Add([]byte{0, 3, 255, 2, 3, 0, 0, 1, 9, 3, 3, 0, 5, 0, 0})          // fail, alloc, heal, displace
	f.Add([]byte{0, 0, 8, 4, 0, 2, 0, 1, 9, 4, 0, 1, 0, 2, 7})            // link fail/heal around allocs
	f.Add([]byte{0, 0, 8, 0, 1, 9, 2, 0, 0, 5, 0, 0, 5, 1, 0, 3, 0, 0})   // fail then displace twice
	f.Add([]byte{0, 5, 31, 0, 6, 15, 1, 1, 0, 2, 4, 0, 0, 7, 3, 5, 0, 0}) // mixed churn
	f.Add([]byte{0, 0, 8, 0, 1, 9, 6, 1, 0, 2, 0, 0, 6, 0, 0, 6, 1, 0})   // hold-replay around a failed box
	f.Fuzz(func(t *testing.T, ops []byte) {
		orig := newFuzzInstance(t)
		nOps := len(ops) / 3
		splitAt := nOps / 2
		vmID := 0

		// First half: only the original runs.
		for i := 0; i < splitAt; i++ {
			op, sel, amt := ops[i*3], ops[i*3+1], ops[i*3+2]
			if placed, _ := orig.step(t, op, sel, amt, vmID); placed || op%fuzzOps == 0 {
				vmID++
			}
			orig.check(t, i)
		}

		// Snapshot and restore into a pristine twin.
		snap, err := CaptureState(orig.st, orig.sch, orig.live)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		twin := newFuzzInstance(t)
		twinLive, err := RestoreState(twin.st, twin.sch, snap)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		twin.live = twinLive
		twin.check(t, splitAt)
		oracleEqual(t, splitAt, orig, twin)

		// Second half: both run the same ops and must never diverge.
		for i := splitAt; i < nOps; i++ {
			op, sel, amt := ops[i*3], ops[i*3+1], ops[i*3+2]
			p1, s1 := orig.step(t, op, sel, amt, vmID)
			p2, s2 := twin.step(t, op, sel, amt, vmID)
			if op%fuzzOps == 0 {
				vmID++
			}
			if p1 != p2 || s1 != s2 {
				t.Fatalf("op %d: decisions diverge: %v/%s vs %v/%s", i, p1, s1, p2, s2)
			}
			orig.check(t, i)
			twin.check(t, i)
			oracleEqual(t, i, orig, twin)
		}
	})
}
