package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"risa/internal/faults"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// newTestDriver builds a driver over a fresh default-shaped datacenter.
func newTestDriver(t *testing.T, algo string) *Driver {
	t.Helper()
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sch, err := sched.New(algo, st)
	if err != nil {
		t.Fatal(err)
	}
	return NewDriver(st, sch)
}

// driverScript derives a deterministic mixed place/mutate/advance script
// from seed and runs steps [applyFrom, n) against d — earlier steps only
// consume the RNG, so a restored driver can resume mid-script with the
// stream in the right position. Decisions from step recordFrom on are
// returned for comparison.
func driverScript(t *testing.T, d *Driver, seed int64, n, applyFrom, recordFrom int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n-recordFrom)
	var vt int64
	id := 0
	for i := 0; i < n; i++ {
		apply := i >= applyFrom
		switch k := rng.Intn(12); {
		case k < 9:
			vt += rng.Int63n(10)
			id++
			vm := workload.VM{
				ID: id, Arrival: vt, Lifetime: 1 + rng.Int63n(80),
				Tier: rng.Intn(workload.NumTiers),
				Req:  units.Vec(units.Amount(1+rng.Int63n(24)), units.Amount(1+rng.Int63n(24)), 0),
			}
			if !apply {
				continue
			}
			_, pt, err := d.Place(vm)
			verdict := "place"
			if err != nil {
				verdict = "reject"
			}
			if i >= recordFrom {
				out = append(out, fmt.Sprintf("%s vm=%d t=%d resident=%d", verdict, vm.ID, pt, d.Resident()))
			}
		case k < 11:
			ev := faults.Event{Tier: faults.BoxTier, Rack: rng.Intn(4), Box: rng.Intn(6)}
			if rng.Intn(2) == 0 {
				ev.Repair = true
			}
			if apply {
				ev.T = d.Now()
				if err := d.Apply(ev); err != nil {
					t.Fatal(err)
				}
			}
		default:
			adv := rng.Int63n(30)
			if apply {
				d.reach(d.Now()+adv, arrival)
			}
		}
	}
	return out
}

// TestDriverSnapshotRoundtrip splits a script around Snapshot/
// RestoreDriver and requires the restored driver to finish it with
// decisions identical to the uncrashed twin's, ending in an identical
// snapshot — per registered algorithm, cursor state included. The driver
// that took the snapshot then finishes the script too, and must end the
// same way: capture only reads, which is what lets the daemon snapshot
// every few thousand records and keep serving.
func TestDriverSnapshotRoundtrip(t *testing.T) {
	for _, algo := range sched.Registered() {
		t.Run(algo, func(t *testing.T) {
			const n, split = 300, 140
			whole := newTestDriver(t, algo)
			want := driverScript(t, whole, 11, n, 0, split)

			orig := newTestDriver(t, algo)
			driverScript(t, orig, 11, split, 0, split)
			snap, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if snap.AdmitSeq != orig.c.admitSeq || snap.AdmitSeq == 0 {
				t.Fatalf("snapshot AdmitSeq %d, driver admitted %d", snap.AdmitSeq, orig.c.admitSeq)
			}
			st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sch, err := sched.New(algo, st)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreDriver(st, sch, snap)
			if err != nil {
				t.Fatal(err)
			}
			if restored.c.admitSeq != snap.AdmitSeq {
				t.Fatalf("restored AdmitSeq %d, snapshot %d", restored.c.admitSeq, snap.AdmitSeq)
			}
			got := driverScript(t, restored, 11, n, split, split)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("restored driver diverged from uncrashed twin:\nwant %v\ngot  %v", want, got)
			}
			if cont := driverScript(t, orig, 11, n, split, split); !reflect.DeepEqual(want, cont) {
				t.Fatalf("snapshotted driver diverged from uncrashed twin:\nwant %v\ngot  %v", want, cont)
			}
			endA, err := whole.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for name, d := range map[string]*Driver{"restored": restored, "snapshotted": orig} {
				end, err := d.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(endA, end) {
					t.Fatalf("%s driver's final snapshot differs from the uncrashed twin's", name)
				}
			}
		})
	}
}

// TestDriverDepartures pins the event order: a VM placed for lifetime L
// frees its capacity at exactly T+L — one tick earlier it is still
// resident — and the virtual clock never runs backwards.
func TestDriverDepartures(t *testing.T) {
	d := newTestDriver(t, "RISA")
	if d.Resident() != 0 || d.Now() != 0 {
		t.Fatal("driver not pristine")
	}
	if _, _, err := d.Place(workload.VM{ID: 1, Arrival: 0, Lifetime: 100, Req: units.Vec(4, 4, 0)}); err != nil {
		t.Fatal(err)
	}
	if d.Resident() != 1 {
		t.Fatalf("resident = %d", d.Resident())
	}
	d.reach(99, arrival)
	if d.Resident() != 1 {
		t.Fatal("departed early")
	}
	d.reach(100, arrival)
	if d.Resident() != 0 {
		t.Fatal("did not depart at T+L")
	}
	if d.Now() != 100 {
		t.Fatalf("clock = %d", d.Now())
	}
	// A late-stamped arrival is clamped to the current time.
	_, pt, err := d.Place(workload.VM{ID: 2, Arrival: 50, Lifetime: 10, Req: units.Vec(1, 1, 0)})
	if err != nil || pt != 100 {
		t.Fatalf("late-stamped place at t=%d, err=%v; want 100", pt, err)
	}
}

// TestDriverRefusesOverflowingDeparture: a lifetime whose departure time
// would pass math.MaxInt64 from the clamped arrival is a rejected decision,
// taken before time moves; one that lands exactly on math.MaxInt64 is
// placed. Letting the sum wrap queued a departure in the past, whose
// release was then lost and its VM held forever.
func TestDriverRefusesOverflowingDeparture(t *testing.T) {
	d := newTestDriver(t, "RISA")
	fresh := newTestDriver(t, "RISA")
	req := units.Vec(4, 4, 64)
	if _, _, err := d.Place(workload.VM{ID: 1, Arrival: 10, Lifetime: 5, Req: req}); err != nil {
		t.Fatal(err)
	}
	// Arrival 0 is clamped to the clock, 10: 10 + MaxInt64 wraps.
	a, pt, err := d.Place(workload.VM{ID: 2, Arrival: 0, Lifetime: math.MaxInt64, Req: req})
	if err == nil || a != nil || pt != 10 || d.Now() != 10 {
		t.Fatalf("overflowing lifetime: assignment %v at t=%d, err %v, clock %d; want a refusal at 10", a, pt, err, d.Now())
	}
	if _, _, err := d.Place(workload.VM{ID: 3, Arrival: 20, Lifetime: math.MaxInt64 - 20, Req: req}); err != nil {
		t.Fatalf("a departure at exactly MaxInt64 fits: %v", err)
	}
	if _, _, err := d.Place(workload.VM{ID: 4, Arrival: 300, Lifetime: 5, Req: req}); err != nil {
		t.Fatal(err)
	}
	// VM 1 has departed; VMs 3 and 4 hold what the same two placements
	// hold on a fresh datacenter.
	if d.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", d.Resident())
	}
	for _, id := range []int{3, 4} {
		if _, _, err := fresh.Place(workload.VM{ID: id, Arrival: 300, Lifetime: 5, Req: req}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range units.Resources() {
		if got, want := d.c.st.Cluster.TotalFree(r), fresh.c.st.Cluster.TotalFree(r); got != want {
			t.Errorf("%v free = %d, want %d", r, got, want)
		}
	}
}

// TestDriverApplyScope pins mutation validation and the fail/heal
// round-trip: an unknown tier and out-of-range coordinates are rejected, a
// fully failed cluster places nothing, and healing restores placability.
func TestDriverApplyScope(t *testing.T) {
	d := newTestDriver(t, "RISA")
	if err := d.Apply(faults.Event{Tier: faults.RackTier + 1}); err == nil {
		t.Fatal("a tier past RackTier must be rejected")
	}
	if err := d.Apply(faults.Event{Tier: faults.RackTier, Rack: 99}); err == nil {
		t.Fatal("out-of-range rack must be rejected")
	}
	if err := d.Apply(faults.Event{Tier: faults.BoxTier, Rack: 0, Box: 99}); err == nil {
		t.Fatal("out-of-range box must be rejected")
	}
	for r := 0; r < d.c.st.Cluster.NumRacks(); r++ {
		if err := d.Apply(faults.Event{Tier: faults.RackTier, Rack: r}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.Place(workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(1, 1, 0)}); err == nil {
		t.Fatal("placement on a fully failed cluster must be rejected")
	}
	for r := 0; r < d.c.st.Cluster.NumRacks(); r++ {
		if err := d.Apply(faults.Event{Repair: true, Tier: faults.RackTier, Rack: r}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.Place(workload.VM{ID: 2, Lifetime: 10, Req: units.Vec(1, 1, 0)}); err != nil {
		t.Fatalf("placement after heal: %v", err)
	}
}
