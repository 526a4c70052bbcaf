package svc

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"risa/internal/faults"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/sched/schedtest"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"

	_ "risa/internal/baseline" // register NULB, NALB
	_ "risa/internal/core"     // register RISA, RISA-BF
)

// testConfig is a small daemon shape: 4 in-service racks, 1 spare.
func testConfig() Config {
	tcfg := topology.DefaultConfig()
	tcfg.Racks = 4
	return Config{Topology: tcfg, Network: network.DefaultConfig(), Spares: 1, Algo: "RISA"}
}

// op is one scripted engine operation for the twin tests.
type op struct {
	kind    RecordKind
	vm      workload.VM
	fault   faults.Event
	algo    string
	addRack bool
}

// genOps derives a deterministic operation script from seed: mostly
// placements with monotone arrivals, seasoned with rack/box fail+heal
// pairs, at most one add-rack, and scheduler swaps. One placement in
// sixteen draws an extreme lifetime: its departure lands at or just past
// math.MaxInt64, where Place refuses it.
func genOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	algos := sched.Registered()
	ops := make([]op, 0, n)
	var t int64
	addRacks := 0
	id := 0
	for len(ops) < n {
		switch k := rng.Intn(20); {
		case k < 15: // placement
			t += rng.Int63n(15)
			id++
			lifetime := 1 + rng.Int63n(120)
			if rng.Intn(16) == 0 {
				lifetime = math.MaxInt64 - max(t, 1) + rng.Int63n(2)
			}
			ops = append(ops, op{kind: RecordPlace, vm: workload.VM{
				ID:       id,
				Arrival:  t,
				Lifetime: lifetime,
				Tier:     rng.Intn(workload.NumTiers),
				Req: units.Vec(
					units.Amount(1+rng.Int63n(32)),
					units.Amount(1+rng.Int63n(32)),
					units.Amount(64*rng.Int63n(4))),
			}})
		case k < 17: // fail+heal pair over an in-service rack
			ev := faults.Event{Tier: faults.RackTier, Rack: rng.Intn(4)}
			if rng.Intn(2) == 0 {
				ev.Tier = faults.BoxTier
				ev.Box = rng.Intn(6)
			}
			heal := ev
			heal.Repair = true
			ops = append(ops, op{kind: RecordMutate, fault: ev}, op{kind: RecordMutate, fault: heal})
		case k < 18 && addRacks == 0: // one add-rack per script at most
			addRacks++
			ops = append(ops, op{kind: RecordAddRack, addRack: true})
		default: // swap
			ops = append(ops, op{kind: RecordSwap, algo: algos[rng.Intn(len(algos))]})
		}
	}
	return ops[:n]
}

// applyOps runs the script's tail starting at from; the engine must
// already hold the effect of ops[:from].
func applyOps(t *testing.T, e *Engine, ops []op, from int) {
	t.Helper()
	for i := from; i < len(ops); i++ {
		var err error
		switch o := ops[i]; o.kind {
		case RecordPlace:
			_, err = e.Place(o.vm)
		case RecordMutate:
			err = e.Mutate(o.fault)
		case RecordAddRack:
			_, err = e.AddRack()
		case RecordSwap:
			err = e.Swap(o.algo)
		}
		if err != nil {
			t.Fatalf("op %d (%+v): %v", i, ops[i], err)
		}
	}
}

// assertTwins asserts decision-for-decision and state-level equality of
// the crashed-and-recovered engine b against the uncrashed twin a.
func assertTwins(t *testing.T, a, b *Engine) {
	t.Helper()
	if !reflect.DeepEqual(a.history, b.history) {
		ha, hb := a.history, b.history
		for i := range ha {
			if i >= len(hb) || ha[i] != hb[i] {
				t.Fatalf("histories diverge at %d:\n  uncrashed: %+v\n  recovered: %+v", i, ha[i], hb[i])
			}
		}
		t.Fatalf("recovered history has %d decisions, uncrashed %d", len(hb), len(ha))
	}
	if a.Now() != b.Now() || a.Resident() != b.Resident() || a.Algo() != b.Algo() || a.InService() != b.InService() {
		t.Fatalf("state diverged: now %d/%d resident %d/%d algo %s/%s racks %d/%d",
			a.Now(), b.Now(), a.Resident(), b.Resident(), a.Algo(), b.Algo(), a.InService(), b.InService())
	}
	assertCountsMatchHistory(t, a)
	assertCountsMatchHistory(t, b)
	sa, err := a.d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("driver snapshots differ after identical op sequences")
	}
	// A snapshot is built from the departure heap, so it cannot see
	// holdings the heap lost: compare the planes themselves.
	for _, r := range units.Resources() {
		if fa, fb := a.st.Cluster.TotalFree(r), b.st.Cluster.TotalFree(r); fa != fb {
			t.Fatalf("free %v diverged: uncrashed %d, recovered %d", r, fa, fb)
		}
	}
	fa, fb := a.st.Fabric, b.st.Fabric
	if fa.IntraRackFree() != fb.IntraRackFree() || fa.InterRackFree() != fb.InterRackFree() {
		t.Fatalf("free bandwidth diverged: uncrashed intra %v inter %v, recovered intra %v inter %v",
			fa.IntraRackFree(), fa.InterRackFree(), fb.IntraRackFree(), fb.InterRackFree())
	}
}

// assertCountsMatchHistory requires the O(1) per-tier decision counters
// behind GET /stats to equal a rescan of the placement history.
func assertCountsMatchHistory(t *testing.T, e *Engine) {
	t.Helper()
	var accepted, rejected [workload.NumTiers]int64
	for _, o := range e.history {
		if o.Accepted {
			accepted[o.Tier]++
		} else {
			rejected[o.Tier]++
		}
	}
	if e.accepted != accepted || e.rejected != rejected {
		t.Fatalf("decision counters accepted %v rejected %v, history rescan says %v and %v",
			e.accepted, e.rejected, accepted, rejected)
	}
}

// TestDecisionCountersSurviveCrash kills an engine whose history holds
// acceptances and rejections on every tier, part of it folded into a
// snapshot and part only in the journal, and requires the reopened
// engine's counters to equal both a rescan of its history and the
// counters the dead process had.
func TestDecisionCountersSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, testConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 24; id++ {
		vm := workload.VM{ID: id, Arrival: int64(id), Lifetime: 1000, Tier: id % workload.NumTiers, Req: units.Vec(4, 8, 64)}
		if id%4 == 0 {
			vm.Req = units.Vec(1<<20, 8, 64) // larger than any box: rejected
		}
		if _, err := e.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	assertCountsMatchHistory(t, e)
	for tier := 0; tier < workload.NumTiers; tier++ {
		if e.accepted[tier] == 0 || e.rejected[tier] == 0 {
			t.Fatalf("script must accept and reject on every tier: accepted %v rejected %v", e.accepted, e.rejected)
		}
	}
	e.crash()
	e2, err := Open(dir, testConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.crash()
	assertCountsMatchHistory(t, e2)
	if e2.accepted != e.accepted || e2.rejected != e.rejected {
		t.Fatalf("recovered counters accepted %v rejected %v, before the crash %v and %v",
			e2.accepted, e2.rejected, e.accepted, e.rejected)
	}
}

// TestOverflowingLifetimeSurvivesReopen: a lifetime that would carry the
// departure past math.MaxInt64 from the clamped arrival is refused, so the
// reopened engine holds exactly what the one that wrote the snapshot held.
// Accepting it queued a wrapped, negative departure that the next step
// dropped along with the VM's release, and the snapshot lost the holdings.
func TestOverflowingLifetimeSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := units.Vec(4, 4, 64)
	for _, vm := range []workload.VM{
		{ID: 1, Arrival: 10, Lifetime: 5, Req: req},
		{ID: 2, Arrival: 0, Lifetime: math.MaxInt64, Req: req},
		{ID: 3, Arrival: 300, Lifetime: 5, Req: req},
	} {
		out, err := e.Place(vm)
		if err != nil {
			t.Fatal(err)
		}
		if out.Accepted == (vm.ID == 2) {
			t.Fatalf("VM %d: accepted %v (%s)", vm.ID, out.Accepted, out.Reason)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.crash()
	assertTwins(t, e, e2)
	if e2.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", e2.Resident())
	}
}

// crash simulates kill -9: the journal file handle closes (the kernel
// would do the same) but no final snapshot is written and no in-memory
// state survives.
func (e *Engine) crash() { e.j.Close() }

// TestCrashReplayEquivalence is the deterministic core of the recovery
// contract: kill the engine at an op boundary, reopen from snapshot +
// journal, finish the script, and require bit-identical history and
// driver state against an uncrashed twin — including across swaps,
// mutations and an add-rack.
func TestCrashReplayEquivalence(t *testing.T) {
	cfg := testConfig()
	ops := genOps(42, 80)
	for _, crashAt := range []int{0, 1, 13, 40, 79, 80} {
		a, err := Open(t.TempDir(), cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, a, ops, 0)

		dirB := t.TempDir()
		b, err := Open(dirB, cfg, 7) // frequent snapshots: exercise restore
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, b, ops[:crashAt], 0)
		b.crash()
		b2, err := Open(dirB, cfg, 7)
		if err != nil {
			t.Fatalf("crashAt %d: reopen: %v", crashAt, err)
		}
		applyOps(t, b2, ops, crashAt)
		assertTwins(t, a, b2)
		a.crash()
		b2.crash()
	}
}

// TestDoubleCrash kills the engine twice — the second time from an
// already-recovered process whose snapshots were taken mid-recovery —
// and still requires exact equivalence with the uncrashed twin.
func TestDoubleCrash(t *testing.T) {
	cfg := testConfig()
	ops := genOps(7, 60)
	a, err := Open(t.TempDir(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.crash()
	applyOps(t, a, ops, 0)

	dirB := t.TempDir()
	b, err := Open(dirB, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, b, ops[:20], 0)
	b.crash()
	b2, err := Open(dirB, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, b2, ops[:45], 20)
	b2.crash()
	b3, err := Open(dirB, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b3.crash()
	applyOps(t, b3, ops, 45)
	assertTwins(t, a, b3)
}

// TestEngineDedup pins exactly-once semantics: retrying a decided VM ID
// returns the original outcome without re-placing.
func TestEngineDedup(t *testing.T) {
	e, err := Open(t.TempDir(), testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.crash()
	vm := workload.VM{ID: 9, Lifetime: 50, Req: units.Vec(4, 8, 64)}
	first, err := e.Place(vm)
	if err != nil {
		t.Fatal(err)
	}
	resident := e.Resident()
	again, err := e.Place(vm)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("retry returned %+v, want original %+v", again, first)
	}
	if e.Resident() != resident {
		t.Fatalf("retry changed resident count %d → %d", resident, e.Resident())
	}
	if len(e.history) != 1 {
		t.Fatalf("retry appended to history: %d entries", len(e.history))
	}
}

// TestEngineAddRackSpares pins the spare-rack ladder: capacity grows per
// add-rack, mutations outside in-service racks are rejected, and the
// spares eventually run out.
func TestEngineAddRackSpares(t *testing.T) {
	e, err := Open(t.TempDir(), testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.crash()
	if e.InService() != 4 || e.Spares() != 1 {
		t.Fatalf("genesis: %d in service, %d spares", e.InService(), e.Spares())
	}
	if err := e.Mutate(faults.Event{Tier: faults.RackTier, Rack: 4}); err == nil {
		t.Fatal("mutating a dark spare rack must be rejected")
	}
	rack, err := e.AddRack()
	if err != nil || rack != 4 {
		t.Fatalf("AddRack = %d, %v; want 4, nil", rack, err)
	}
	if e.Spares() != 0 {
		t.Fatalf("spares after add: %d", e.Spares())
	}
	if err := e.Mutate(faults.Event{Tier: faults.RackTier, Rack: 4}); err != nil {
		t.Fatalf("mutating the newly added rack: %v", err)
	}
	if _, err := e.AddRack(); err == nil {
		t.Fatal("AddRack with no spares left must fail")
	}
}

// TestEngineShapeMismatch pins the recovery compatibility check: state
// captured under one datacenter shape must not restore under another.
func TestEngineShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Place(workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(1, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	e.crash()
	bigger := testConfig()
	bigger.Topology.Racks = 8
	if _, err := Open(dir, bigger, 0); err == nil {
		t.Fatal("reopening under a different shape must fail")
	}
}

// FuzzCrashReplay randomizes the crash-recovery twin test: a seeded op
// script, a crash at an arbitrary op boundary with aggressive snapshot
// cadence, recovery, and the script's remainder — recovered history and
// driver state must match the uncrashed twin exactly. A non-zero tear makes
// it a crash inside the last append instead: that frame is damaged the way
// tearLastFrame says before the reopen, so the recovered engine must be the
// one that never saw that op, and catches up from there.
func FuzzCrashReplay(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(40), uint8(3), uint8(0))
	f.Add(int64(99), uint8(0), uint8(25), uint8(1), uint8(7))
	f.Add(int64(7), uint8(60), uint8(60), uint8(16), uint8(200))
	cfg := testConfig()
	f.Fuzz(func(t *testing.T, seed int64, crashAt, nOps, snapEvery, tear uint8) {
		n := int(nOps)%64 + 1
		k := int(crashAt) % (n + 1)
		ops := genOps(seed, n)

		a, err := Open(t.TempDir(), cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer a.crash()
		applyOps(t, a, ops, 0)

		dirB := t.TempDir()
		b, err := Open(dirB, cfg, int(snapEvery)%9)
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, b, ops[:k], 0)
		b.crash()
		// The crash can have been inside the last append only if nothing
		// since — a snapshot holding that record — proves its Sync returned.
		if mode := int(tear) % tearModes; mode != tearNone && b.sinceSnap > 0 &&
			tearLastFrame(t, filepath.Join(dirB, journalFile), mode, int(tear)/tearModes) {
			k--
		}
		b2, err := Open(dirB, cfg, int(snapEvery)%9)
		if err != nil {
			t.Fatalf("reopen after crash at op %d/%d (tear %d): %v", k, n, tear, err)
		}
		defer b2.crash()
		if got := int(b2.j.NextSeq()) - 1; got != k {
			t.Fatalf("reopen after crash at op %d/%d (tear %d) recovered %d records", k, n, tear, got)
		}
		applyOps(t, b2, ops, k)
		assertTwins(t, a, b2)
	})
}

// TestRecoveryWithoutSnapshot covers the genesis-replay path: delete the
// snapshot after a crash and recovery must still rebuild everything from
// the journal alone.
func TestRecoveryWithoutSnapshot(t *testing.T) {
	cfg := testConfig()
	ops := genOps(3, 40)
	a, err := Open(t.TempDir(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.crash()
	applyOps(t, a, ops, 0)

	dirB := t.TempDir()
	b, err := Open(dirB, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, b, ops, 0)
	b.crash()
	if err := os.Remove(filepath.Join(dirB, snapshotFile)); err != nil {
		t.Fatal(err)
	}
	b2, err := Open(dirB, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.crash()
	assertTwins(t, a, b2)
}

// TestSnapshotFailureKeepsPlacing: by the time the periodic snapshot runs,
// the placement that triggered it is fsync'd and applied, so a snapshot
// that cannot be written must not fail it. snapshot.gob.tmp is made a
// directory, so os.Create fails the way a full disk would: every placement
// still answers, the error shows in SnapshotErr and in Stats, a reopen
// recovers every acknowledged record from the journal, and once the
// obstacle goes the next cadence point writes the snapshot and clears it.
func TestSnapshotFailureKeepsPlacing(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	place := func(e *Engine, id int) {
		t.Helper()
		out, err := e.Place(workload.VM{ID: id, Arrival: int64(id), Lifetime: 1000, Req: units.Vec(4, 8, 64)})
		if err != nil || !out.Accepted || out.VMID != id {
			t.Fatalf("placement %d: %+v, %v", id, out, err)
		}
	}
	for id := 1; id <= 10; id++ {
		place(e, id)
		if failed := e.SnapshotErr() != nil; failed != (id >= 4) {
			t.Fatalf("after placement %d SnapshotErr = %v; the cadence is 4", id, e.SnapshotErr())
		}
	}
	if e.sinceSnap != 2 {
		t.Fatalf("%d records since the last attempt, want 2: a failed snapshot is retried a cadence later, not on every record", e.sinceSnap)
	}
	if st := NewServer(e, 0).stats(); st.LastSnapshotError == "" {
		t.Fatal("Stats does not show the failed snapshot")
	}
	if err := e.WriteSnapshot(); err == nil {
		t.Fatal("the explicit path must still return the error")
	}
	want := append([]Outcome(nil), e.history...)
	e.crash()

	e2, err := Open(dir, testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.crash()
	if !reflect.DeepEqual(e2.history, want) {
		t.Fatalf("reopen recovered %d of %d acknowledged placements", len(e2.history), len(want))
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for id := 11; id <= 14; id++ {
		place(e2, id)
	}
	if err := e2.SnapshotErr(); err != nil {
		t.Fatalf("snapshot still failing with the obstacle gone: %v", err)
	}
	if st := NewServer(e2, 0).stats(); st.LastSnapshotError != "" {
		t.Fatalf("Stats still shows %q", st.LastSnapshotError)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("no snapshot written at the next cadence point: %v", err)
	}
}

// TestSnapshotFactsOwnedByEngine: the snapshot size and age that Stats
// reports are the engine's record of the file in place, not a read of the
// file system: a reopened engine reports the file the previous process
// wrote, and a failed WriteSnapshot leaves both describing the file that
// is still there.
func TestSnapshotFactsOwnedByEngine(t *testing.T) {
	place := func(e *Engine, from, to int) {
		t.Helper()
		for id := from; id <= to; id++ {
			if _, err := e.Place(workload.VM{ID: id, Arrival: int64(id), Lifetime: 1000, Req: units.Vec(4, 8, 64)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	inPlace := func(dir string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	t.Run("a reopened engine reports the previous process's snapshot", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(dir, testConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if st := NewServer(e, 0).stats(); st.SnapshotBytes != 0 || st.SnapshotAgeSeconds != 0 {
			t.Fatalf("a fresh directory reports a snapshot of %d bytes, %g s old", st.SnapshotBytes, st.SnapshotAgeSeconds)
		}
		place(e, 1, 5)
		if err := e.WriteSnapshot(); err != nil {
			t.Fatal(err)
		}
		written := e.snapBytes
		e.crash()
		if fi := inPlace(dir); written != fi.Size() {
			t.Fatalf("WriteSnapshot recorded %d bytes, the file holds %d", written, fi.Size())
		}

		e2, err := Open(dir, testConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer e2.crash()
		st := NewServer(e2, 0).stats()
		if st.SnapshotBytes != written {
			t.Fatalf("reopened engine reports %d snapshot bytes, the previous process wrote %d", st.SnapshotBytes, written)
		}
		if fi := inPlace(dir); !e2.snapAt.Equal(fi.ModTime()) || st.SnapshotAgeSeconds < 0 {
			t.Fatalf("reopened engine dates the snapshot %v (age %g s), the file %v", e2.snapAt, st.SnapshotAgeSeconds, fi.ModTime())
		}
	})
	t.Run("a failed WriteSnapshot leaves the facts of the file in place", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(dir, testConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer e.crash()
		place(e, 1, 5)
		if err := e.WriteSnapshot(); err != nil {
			t.Fatal(err)
		}
		size, at := e.snapBytes, e.snapAt
		place(e, 6, 40) // the next snapshot would be larger
		spy := newSpyFsync(t)
		spy.err[filepath.Join(dir, snapshotFile+".tmp")] = errors.New("some-error")
		if err := e.WriteSnapshot(); err == nil {
			t.Fatal("WriteSnapshot succeeded with its flush failing")
		}
		st := NewServer(e, 0).stats()
		if fi := inPlace(dir); st.SnapshotBytes != size || size != fi.Size() || !e.snapAt.Equal(at) {
			t.Fatalf("after a failed snapshot: %d bytes dated %v reported, %d bytes dated %v before it, %d bytes in place",
				st.SnapshotBytes, e.snapAt, size, at, fi.Size())
		}
		if st.LastSnapshotError == "" {
			t.Fatal("Stats does not show the failed snapshot")
		}
	})
}

// TestJournalFailureIsSticky: a journal that failed once refuses from then
// on. The file is closed under the engine, so the next append fails the
// way an EIO would; the descriptor is then replaced by a working one —
// the retried write and fsync would now succeed, and prove nothing about
// what the failure left behind — and the engine must still refuse with
// the first error, ack nothing, leave the file alone byte for byte, and
// recover exactly the acknowledged log at the next open.
func TestJournalFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	vm := func(id int) workload.VM {
		return workload.VM{ID: id, Arrival: int64(id), Lifetime: 1000, Req: units.Vec(4, 8, 64)}
	}
	for id := 1; id <= 5; id++ {
		if out, err := e.Place(vm(id)); err != nil || !out.Accepted {
			t.Fatalf("placement %d: %+v, %v", id, out, err)
		}
	}
	want := append([]Outcome(nil), e.history...)
	path := filepath.Join(dir, journalFile)
	durable, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	e.j.f.Close()
	_, first := e.Place(vm(6))
	if !errors.Is(first, os.ErrClosed) {
		t.Fatalf("append to a closed journal: %v, want os.ErrClosed", first)
	}
	healed, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.j.f = healed
	for _, id := range []int{6, 7} {
		if out, err := e.Place(vm(id)); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("placement %d after the failure: %+v, %v; want the first error again", id, out, err)
		}
	}
	if err := e.Mutate(faults.Event{Tier: faults.RackTier, Rack: 1}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("mutation after the failure: %v; want the first error again", err)
	}
	if !reflect.DeepEqual(e.history, want) {
		t.Fatalf("a refused placement was acknowledged: history grew %d → %d", len(want), len(e.history))
	}
	// Bytes, not size: an append overwrites zero room and moves no size.
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, durable) {
		t.Fatalf("the journal was written after its failure (%v)", err)
	}
	e.crash()

	e2, err := Open(dir, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.crash()
	if !reflect.DeepEqual(e2.history, want) {
		t.Fatalf("reopen recovered %d placements, want the %d acknowledged", len(e2.history), len(want))
	}
	if out, err := e2.Place(vm(6)); err != nil || !out.Accepted {
		t.Fatalf("the reopened engine does not place: %+v, %v", out, err)
	}
}

// TestAllocsEnginePlace pins the daemon's whole placement — journal append
// and flush, the driver's decision, history and dedup bookkeeping — at zero
// allocations per request at steady residency: one arrival per tick with a
// fixed lifetime on a 2-rack engine, so each Place releases one departure.
// The history slice and the dedup map grow, but their growth amortises
// below one allocation a placement; the snapshot cadence is left past the
// test's length because a snapshot is allowed to allocate.
func TestAllocsEnginePlace(t *testing.T) {
	cfg := testConfig()
	cfg.Topology.Racks = 2
	eng, err := Open(t.TempDir(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var now int64
	schedtest.ZeroAllocs(t, 500, func() {
		now++
		out, err := eng.Place(workload.VM{ID: int(now), Arrival: now, Lifetime: 16, Req: units.Vec(8, 16, 128)})
		if err != nil || !out.Accepted {
			t.Fatalf("place %d: %+v, %v", now, out, err)
		}
	})
}
