package svc

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// parentConfig is the shape testdata/parent_data was written under
// (testdata/mkdaemon.sh: risasvc -racks 2 -spare-racks 1).
func parentConfig() Config {
	tcfg := topology.DefaultConfig()
	tcfg.Racks = 2
	return Config{Topology: tcfg, Network: network.DefaultConfig(), Spares: 1, Algo: "RISA"}
}

// copyParentData copies the committed data directory (Open truncates and
// appends, so tests never open the fixture itself).
func copyParentData(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{journalFile, snapshotFile} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent_data", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOpenParentDataDir pins on-disk compatibility against files, not
// against this build's own writer: testdata/parent_data is a data
// directory the commit before the one-Snapshot change wrote — a
// snapshot.gob holding the old six-field driver snapshot (a failed box, a
// dark spare, a swapped scheduler) and a journal whose last 37 records
// (a heal, an add-rack, 35 placements) the kill -9'd daemon never folded
// in. Open must reproduce the placement log that daemon served, agree
// with a replay of the whole journal from genesis, and keep placing.
//
// That journal is a risawal1 file (a gob stream per record), so the same
// fixture pins the one-time migration: the first Open leaves a risawal2
// journal and no temp file, a second Open of the migrated directory serves
// the same log and keeps placing, and a directory where an earlier
// migration died half-way through writing journal.wal.tmp opens to the
// same log as well.
func TestOpenParentDataDir(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_placements.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// openTo opens dir, requires the parent daemon's placement log and a
	// migrated journal, and returns the engine.
	openTo := func(dir, what string) *Engine {
		t.Helper()
		e, err := Open(dir, parentConfig(), 64)
		if err != nil {
			t.Fatalf("%s refused: %v", what, err)
		}
		var got bytes.Buffer
		if err := e.WritePlacements(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: placement log differs from the one the parent daemon served:\n got %d bytes\nwant %d bytes", what, got.Len(), len(want))
		}
		journal, err := os.ReadFile(filepath.Join(dir, journalFile))
		if err != nil || !bytes.HasPrefix(journal, []byte(journalMagic)) {
			t.Fatalf("%s: journal starts %q after Open, want %q (%v)", what, journal[:min(8, len(journal))], journalMagic, err)
		}
		if _, err := os.Stat(filepath.Join(dir, journalFile+".tmp")); !os.IsNotExist(err) {
			t.Fatalf("%s: journal.wal.tmp left behind (stat: %v)", what, err)
		}
		return e
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_data", journalFile))
	if err != nil || !bytes.HasPrefix(fixture, []byte(legacyMagic)) {
		t.Fatalf("the fixture journal must stay a %s file (%v)", legacyMagic, err)
	}
	dir := copyParentData(t)
	openTo(dir, "parent-written data directory").crash()
	e := openTo(dir, "migrated data directory")
	defer e.crash()

	halfDir := copyParentData(t)
	if err := os.WriteFile(filepath.Join(halfDir, journalFile+".tmp"), fixture[:len(fixture)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	openTo(halfDir, "directory of an interrupted migration").crash()

	genesisDir := copyParentData(t)
	if err := os.Remove(filepath.Join(genesisDir, snapshotFile)); err != nil {
		t.Fatal(err)
	}
	twin, err := Open(genesisDir, parentConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.crash()
	more := func(e *Engine) (accepted int) {
		for i := 0; i < 40; i++ {
			out, err := e.Place(workload.VM{ID: 1000 + i, Arrival: e.Now() + 7, Lifetime: 300, Req: units.Vec(4, 8, 64)})
			if err != nil {
				t.Fatal(err)
			}
			if out.Accepted {
				accepted++
			}
		}
		return accepted
	}
	if a, b := more(e), more(twin); a == 0 || a != b {
		t.Fatalf("after reopening, %d of 40 further VMs placed (genesis-replay twin: %d)", a, b)
	}
	// The twins' driver positions agree except for AdmitSeq, which the
	// parent's driver snapshot did not record (a Driver has no retry queue
	// to order by it): the restored engine counts admissions from there.
	sa, err := twin.d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := e.d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sa.AdmitSeq <= sb.AdmitSeq {
		t.Fatalf("AdmitSeq %d from genesis, %d restored: want the restored count to start at the parent snapshot's zero", sa.AdmitSeq, sb.AdmitSeq)
	}
	sa.AdmitSeq = sb.AdmitSeq
	if !reflect.DeepEqual(e.History(), twin.History()) || !reflect.DeepEqual(sa, sb) {
		t.Fatal("snapshot + journal suffix and genesis replay ended in different states")
	}
}

// TestOpenRefusesSnapshotWithoutDriver: a snapshot.gob that decodes but
// carries no driver state is refused, not dereferenced.
func TestOpenRefusesSnapshotWithoutDriver(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&engineSnapshot{Config: testConfig(), Algo: "RISA", InService: 4}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := Open(dir, testConfig(), 0); err == nil {
		e.crash()
		t.Fatal("Open accepted a snapshot with no driver state")
	}
}

// TestWriteSnapshotLeavesNoTempFile: a snapshot that cannot be moved into
// place (snapshot.gob is a non-empty directory, so the rename fails) must
// fail and take its temp file with it — and so must a journal migration,
// which moves its file into place through the same replaceFile.
func TestWriteSnapshotLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, testConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.crash()
	if _, err := e.Place(workload.VM{ID: 1, Lifetime: 10, Req: units.Vec(1, 1, 0)}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	if err := os.MkdirAll(filepath.Join(path, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteSnapshot(); err == nil {
		t.Fatal("WriteSnapshot succeeded over a non-empty directory")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("snapshot.gob.tmp left behind (stat: %v)", err)
	}

	jpath := filepath.Join(t.TempDir(), journalFile)
	if err := os.MkdirAll(filepath.Join(jpath, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := migrateJournal(jpath, testConfig(), []Record{{Seq: 1, Kind: RecordAddRack}}); err == nil {
		t.Fatal("migrateJournal succeeded over a non-empty directory")
	}
	if _, err := os.Stat(jpath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("journal.wal.tmp left behind (stat: %v)", err)
	}
}
