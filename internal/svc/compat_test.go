package svc

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"risa/internal/network"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// parentConfig is the shape testdata/dense_data was written under
// (testdata/mkdaemon.sh: risasvc -racks 2 -spare-racks 1).
func parentConfig() Config {
	tcfg := topology.DefaultConfig()
	tcfg.Racks = 2
	return Config{Topology: tcfg, Network: network.DefaultConfig(), Spares: 1, Algo: "RISA"}
}

// copyDataDir copies a committed data directory (Open repairs and
// appends, so tests never open a fixture itself).
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

// TestOpenDenseDataDir pins on-disk compatibility against files, not
// against this build's own writer: testdata/dense_data is mkdaemon.sh
// driven through the risasvc of the commit before the zero room — a dense
// risawal2 journal.wal, no byte behind its last frame, and a snapshot short
// of it by a journal suffix — and parent_placements.txt is the placement
// log that daemon served.
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
// fail and take its temp file with it.
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
}
