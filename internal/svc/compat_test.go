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

// copyDataDir copies a committed data directory (Open repairs, migrates
// and appends, so tests never open a fixture itself).
func copyDataDir(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{journalFile, snapshotFile} {
		b, err := os.ReadFile(filepath.Join("testdata", fixture, name))
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
// same log as well; one whose last frame a crash cut short opens to the
// log less that placement.
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
	dir := copyDataDir(t, "parent_data")
	openTo(dir, "parent-written data directory").crash()
	e := openTo(dir, "migrated data directory")
	defer e.crash()

	halfDir := copyDataDir(t, "parent_data")
	if err := os.WriteFile(filepath.Join(halfDir, journalFile+".tmp"), fixture[:len(fixture)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	openTo(halfDir, "directory of an interrupted migration").crash()

	// A risawal1 frame is longer than any this build writes (≈270 bytes):
	// what is left of one cut short 40 bytes before its end must still
	// read as a torn tail, within legacyMaxFrame of the log's end.
	tornDir := copyDataDir(t, "parent_data")
	if err := os.Truncate(filepath.Join(tornDir, journalFile), int64(len(fixture))-40); err != nil {
		t.Fatal(err)
	}
	torn, err := Open(tornDir, parentConfig(), 64)
	if err != nil {
		t.Fatalf("parent-written data directory with a torn tail refused: %v", err)
	}
	var got bytes.Buffer
	if err := torn.WritePlacements(&got); err != nil {
		t.Fatal(err)
	}
	torn.crash()
	if short := want[:bytes.LastIndexByte(want[:len(want)-1], '\n')+1]; !bytes.Equal(got.Bytes(), short) {
		t.Fatal("parent-written data directory with a torn tail: want the parent daemon's log less its last line")
	}

	genesisDir := copyDataDir(t, "parent_data")
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

// TestOpenDenseDataDir is the same pin for the journal as the commit
// before the zero room wrote it: testdata/dense_data is mkdaemon.sh driven
// through that commit's risasvc — a dense risawal2 journal.wal, no byte
// behind its last frame, and a snapshot short of it by a journal suffix
// (the script is parent_data's, so parent_placements.txt is its log too).
// It must open to the log that daemon served without being rewritten, take
// an append that rounds it up to the chunk, and reopen with everything; and
// a copy whose last frame the crash cut short must open to the log less
// that one unacknowledged placement, then place it again and reopen.
func TestOpenDenseDataDir(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_placements.txt"))
	if err != nil {
		t.Fatal(err)
	}
	log := func(e *Engine) []byte {
		t.Helper()
		var got bytes.Buffer
		if err := e.WritePlacements(&got); err != nil {
			t.Fatal(err)
		}
		return got.Bytes()
	}
	next := workload.VM{ID: 5000, Arrival: 1 << 20, Lifetime: 300, Req: units.Vec(4, 8, 64)}

	dir := copyDataDir(t, "dense_data")
	path := filepath.Join(dir, journalFile)
	fixture, err := os.ReadFile(path)
	if offs := frameOffsets(t, fixture); err != nil || offs[len(offs)-1] != int64(len(fixture)) {
		t.Fatalf("the fixture journal must stay dense: its log ends at %d of %d bytes (%v)", offs[len(offs)-1], len(fixture), err)
	}
	e, err := Open(dir, parentConfig(), 64)
	if err != nil {
		t.Fatalf("dense data directory refused: %v", err)
	}
	if !bytes.Equal(log(e), want) {
		t.Fatal("dense data directory: placement log differs from the one the parent daemon served")
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, fixture) {
		t.Fatal("opening a clean dense journal rewrote it")
	}
	out, err := e.Place(next)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != journalChunk {
		t.Fatalf("after its first append the journal is %d bytes, want one %d-byte chunk (%v)", info.Size(), journalChunk, err)
	}
	served := bytes.Clone(log(e))
	e.crash()
	e, err = Open(dir, parentConfig(), 64)
	if err != nil {
		t.Fatalf("dense data directory, extended: reopen refused: %v", err)
	}
	defer e.crash()
	if !bytes.Equal(log(e), served) {
		t.Fatal("dense data directory, extended: reopened to a different placement log")
	}

	tornDir := copyDataDir(t, "dense_data")
	if err := os.Truncate(filepath.Join(tornDir, journalFile), int64(len(fixture))-5); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(tornDir, parentConfig(), 64)
	if err != nil {
		t.Fatalf("dense data directory with a torn tail refused: %v", err)
	}
	short := want[:bytes.LastIndexByte(want[:len(want)-1], '\n')+1]
	if !bytes.Equal(log(e2), short) {
		t.Fatal("dense data directory with a torn tail: want the parent daemon's log less its last line")
	}
	if again, err := e2.Place(next); err != nil || again.Accepted != out.Accepted {
		t.Fatalf("placing after the torn tail: %+v, %v", again, err)
	}
	served = bytes.Clone(log(e2))
	e2.crash()
	e2, err = Open(tornDir, parentConfig(), 64)
	if err != nil {
		t.Fatalf("dense data directory with a torn tail, extended: reopen refused: %v", err)
	}
	defer e2.crash()
	if !bytes.Equal(log(e2), served) {
		t.Fatal("dense data directory with a torn tail, extended: reopened to a different placement log")
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
