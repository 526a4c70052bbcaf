package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
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
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := runSnapshotRestore(filepath.Join("testdata", "parent_warm.gob"))
	os.Stdout = stdout
	w.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("parent-written snapshot refused: %v", runErr)
	}
	g, wnt := wallLines.ReplaceAll(got, nil), wallLines.ReplaceAll(want, nil)
	if len(g) == 0 || string(g) != string(wnt) {
		t.Fatalf("-restore of the parent's file printed\n%s\nthe parent printed\n%s", g, wnt)
	}
}
