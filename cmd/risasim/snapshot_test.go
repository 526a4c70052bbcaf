package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wallLines matches the wall-clock lines of the snapshot cell's table.
var wallLines = regexp.MustCompile(`(?m)^wall.*\n`)

// TestRestoreParentSnapshotFile pins the -snapshot file format against a
// file, not against this build's own writer: testdata/parent_warm.gob was
// written by `risasim -exp churn -racks 3 -duration 20000 -snapshot` at
// the commit before the one-Snapshot change, and parent_warm.txt is what
// that run printed. -restore must print the same table, wall-clock lines
// aside.
func TestRestoreParentSnapshotFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_warm.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, runErr := stdoutOf(t, func() error {
		return runSnapshotRestore(filepath.Join("testdata", "parent_warm.gob"))
	})
	if runErr != nil {
		t.Fatalf("parent-written snapshot refused: %v", runErr)
	}
	g, wnt := wallLines.ReplaceAll(got, nil), wallLines.ReplaceAll(want, nil)
	if len(g) == 0 || string(g) != string(wnt) {
		t.Fatalf("-restore of the parent's file printed\n%s\nthe parent printed\n%s", g, wnt)
	}
}

// TestSnapshotRunMatchesRestore: a -snapshot run and a -restore of the
// file it wrote print the same table, wall-clock lines aside.
func TestSnapshotRunMatchesRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.gob")
	o, err := parseArgs([]string{"-exp", "churn", "-racks", "3", "-duration", "20000", "-snapshot", path})
	if err != nil {
		t.Fatal(err)
	}
	saved, err := stdoutOf(t, func() error { return runSnapshotSave(o, path) })
	if err != nil {
		t.Fatal(err)
	}
	restored, err := stdoutOf(t, func() error { return runSnapshotRestore(path) })
	if err != nil {
		t.Fatal(err)
	}
	s, r := wallLines.ReplaceAll(saved, nil), wallLines.ReplaceAll(restored, nil)
	if len(s) == 0 || !bytes.Equal(s, r) {
		t.Fatalf("-snapshot printed\n%s\n-restore printed\n%s", s, r)
	}
}

// TestCloneLadders runs both clone-mode ladders, small, from the command
// line to the table: each shares warm snapshots and says so.
func TestCloneLadders(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "churn", "-clone", "-racks", "3", "-duration", "20000", "-target-util", "0.6"},
		{"-exp", "faults", "-clone", "-evict", "-racks", "3", "-duration", "20000", "-target-util", "0.6", "-mtbf", "4000"},
	} {
		o, err := parseArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		out, err := stdoutOf(t, func() error { return run(buildSetup(o), o.exp, scaleMaxRacks(o), ladderConfig(o)) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(string(out), "clone mode") {
			t.Errorf("%v printed no clone-mode table:\n%s", args, out)
		}
	}
}

// stdoutOf runs f with os.Stdout redirected and returns what it printed.
func stdoutOf(t *testing.T, f func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := f()
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}
