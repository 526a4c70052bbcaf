package svc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"risa/internal/faults"
	"risa/internal/sched"
	"risa/internal/sched/schedtest"
	"risa/internal/units"
	"risa/internal/workload"
)

// journalWith writes n place records and returns the journal path.
func journalWith(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.wal")
	j, recs, err := openJournal(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal returned %d records", len(recs))
	}
	for i := 0; i < n; i++ {
		rec := Record{Kind: RecordPlace, VM: workload.VM{ID: i + 1, Lifetime: 10, Req: units.Vec(1, 1, 0)}}
		if err := j.Append(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d assigned seq %d", i, rec.Seq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func reopen(t *testing.T, path string) ([]Record, error) {
	t.Helper()
	j, recs, err := openJournal(path, testConfig())
	if err != nil {
		return nil, err
	}
	j.Close()
	return recs, nil
}

// TestJournalRoundtrip pins the happy path: append, reopen, same
// records, appends continue the sequence.
func TestJournalRoundtrip(t *testing.T) {
	path := journalWith(t, 5)
	recs, err := reopen(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("reopened %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != int64(i+1) || rec.Kind != RecordPlace || rec.VM.ID != i+1 {
			t.Fatalf("record %d corrupted on roundtrip: %+v", i, rec)
		}
	}
	j, _, err := openJournal(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.NextSeq() != 6 {
		t.Fatalf("NextSeq after reopen = %d, want 6", j.NextSeq())
	}
}

// frameOffsets walks a risawal2 journal's bytes and returns where each
// record frame starts, then the log's end (the first zero header, or the
// end of a dense file).
func frameOffsets(t testing.TB, data []byte) []int64 {
	t.Helper()
	le32 := func(off int) int {
		return int(data[off]) | int(data[off+1])<<8 | int(data[off+2])<<16 | int(data[off+3])<<24
	}
	off := len(journalMagic)
	off += frameHeader + le32(off) // the config echo
	offs := []int64{int64(off)}
	for off+frameHeader <= len(data) && le32(off) != 0 {
		off += frameHeader + le32(off)
		offs = append(offs, int64(off))
	}
	if off > len(data) {
		t.Fatalf("journal's last frame runs past its %d bytes", len(data))
	}
	return offs
}

// lastFrame returns the journal's bytes and the extent [start, end) of its
// last record frame.
func lastFrame(t testing.TB, path string) (data []byte, start, end int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, data)
	if len(offs) < 2 {
		t.Fatal("journal holds no record to tear")
	}
	return data, offs[len(offs)-2], offs[len(offs)-1]
}

// The shapes a crash mid-append can give the frame being written. An
// in-place write's pages may reach the disk in either order, so either end
// of the frame can be the part that is missing.
const (
	tearNone   = iota
	tearTail   // a prefix persisted: everything from the cut on is still zero
	tearHead   // a suffix persisted: everything before the cut, header included, is still zero
	tearLength // the header's length field reads as garbage
	tearModes
)

// tearLastFrame damages the journal's last record frame the way mode says,
// at a cut 1 ≤ cut < the frame's length (taken modulo it). The record in
// that frame is no longer acknowledged — unless the tear changed nothing
// (a placement's payload ends in the zero bytes of its unset fields, and
// zeros over zeros is the whole frame), which torn reports.
func tearLastFrame(t testing.TB, path string, mode, cut int) (torn bool) {
	t.Helper()
	data, start, end := lastFrame(t, path)
	frame := data[start:end]
	whole := bytes.Clone(frame)
	cut = 1 + cut%(len(frame)-1)
	switch mode {
	case tearTail:
		clear(frame[cut:])
	case tearHead:
		clear(frame[:cut])
	case tearLength:
		frame[cut%4] ^= 0x5a
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return !bytes.Equal(frame, whole)
}

// requireCleanAppend opens the journal and requires exactly want records
// numbered from 1 with nothing but zeros left behind them, then appends
// one more and reopens: the log must read back whole with the new record
// last and the file a whole number of chunks.
func requireCleanAppend(t *testing.T, what, path string, want int) {
	t.Helper()
	j, recs, err := openJournal(path, testConfig())
	if err != nil {
		t.Fatalf("%s: a torn tail must be tolerated, got %v", what, err)
	}
	if len(recs) != want {
		t.Fatalf("%s: %d records survive, want %d", what, len(recs), want)
	}
	for i, rec := range recs {
		if rec.Seq != int64(i+1) || rec.VM.ID != i+1 {
			t.Fatalf("%s: record %d reads %+v", what, i, rec)
		}
	}
	if data, err := os.ReadFile(path); err != nil || len(bytes.Trim(data[j.off:], "\x00")) != 0 {
		t.Fatalf("%s: bytes of the torn frame survive the open (%v)", what, err)
	}
	rec := Record{Kind: RecordAddRack}
	if err := j.Append(&rec); err != nil {
		t.Fatalf("%s: append after the repair: %v", what, err)
	}
	if rec.Seq != int64(want+1) {
		t.Fatalf("%s: append after the repair got seq %d, want %d", what, rec.Seq, want+1)
	}
	j.Close()
	recs, err = reopen(t, path)
	if err != nil || len(recs) != want+1 || recs[want].Kind != RecordAddRack {
		t.Fatalf("%s: after repair and append the journal reads %d records, %v", what, len(recs), err)
	}
	if info, err := os.Stat(path); err != nil || info.Size()%journalChunk != 0 {
		t.Fatalf("%s: file is %d bytes, not a multiple of the %d-byte chunk (%v)", what, info.Size(), journalChunk, err)
	}
}

// TestJournalTornTailTolerated pins the crash-mid-append policy over every
// tear of the final frame: any prefix of it kept, any suffix kept with the
// head — header included — still zero, the header alone, a garbage length.
// Each opens to exactly the records before it and appends cleanly. A reader
// that merely stopped at the first zero header would take a kept suffix for
// data behind the log, or leave it to corrupt the next append.
func TestJournalTornTailTolerated(t *testing.T) {
	rec := Record{Seq: 5, Kind: RecordPlace, VM: workload.VM{ID: 5, Lifetime: 10, Req: units.Vec(1, 1, 0)}}
	frameLen := len(appendFrame(nil, &rec))
	for mode := tearTail; mode < tearModes; mode++ {
		for cut := 0; cut < frameLen-1; cut++ {
			path := journalWith(t, 5)
			want := 5
			if tearLastFrame(t, path, mode, cut) {
				want = 4
			}
			requireCleanAppend(t, fmt.Sprintf("mode %d cut %d", mode, cut+1), path, want)
		}
	}
}

// TestJournalTornTailTruncatedOnOpen is the same policy on a dense file,
// the shape the commit before the zero room wrote and crashed into: the
// file ends inside its last frame. Open drops the partial frame, the first
// append lands at a clean frame boundary and rounds the file up to the
// chunk, and the journal reads back whole.
func TestJournalTornTailTruncatedOnOpen(t *testing.T) {
	for _, chop := range []int64{1, 2, 5, 9} {
		path := journalWith(t, 3)
		_, _, end := lastFrame(t, path)
		if err := os.Truncate(path, end-chop); err != nil {
			t.Fatal(err)
		}
		requireCleanAppend(t, fmt.Sprintf("dense file short by %d", chop), path, 2)
	}
	path := journalWith(t, 3)
	_, _, end := lastFrame(t, path)
	if err := os.Truncate(path, end); err != nil {
		t.Fatal(err)
	}
	requireCleanAppend(t, "dense file, nothing torn", path, 3)
}

// TestJournalMidFileCorruptionRejected pins the other half of the policy:
// damage a torn append cannot explain is corruption, and recovery must
// refuse to replay around it. A torn append reaches at most maxFrame bytes
// past the log's end, so a flipped byte in an acknowledged frame with more
// than that behind it, a non-zero byte anywhere further into the zero
// room, and a well-formed frame carrying the wrong Seq ahead of later
// records are all refused — and the last byte a tear could reach is not.
func TestJournalMidFileCorruptionRejected(t *testing.T) {
	const n = 40
	path := journalWith(t, n)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, clean)
	end := offs[n]
	if end-offs[4] <= maxFrame {
		t.Fatalf("frame 5 is %d bytes from the log's end, within reach of a %d-byte tear", end-offs[4], maxFrame)
	}
	wrongSeq := Record{Seq: 99, Kind: RecordPlace, VM: workload.VM{ID: 5, Lifetime: 10, Req: units.Vec(1, 1, 0)}}
	for _, tc := range []struct {
		what   string
		damage func(data []byte)
		refuse bool
	}{
		{"byte flipped in an acknowledged frame", func(d []byte) { d[offs[4]+frameHeader+2] ^= 0xff }, true},
		{"header zeroed on an acknowledged frame", func(d []byte) { clear(d[offs[4] : offs[4]+frameHeader]) }, true},
		{"well-formed frame with the wrong seq, records after it", func(d []byte) { copy(d[offs[4]:offs[5]], appendFrame(nil, &wrongSeq)) }, true},
		{"non-zero byte just past a tear's reach", func(d []byte) { d[end+maxFrame] = 1 }, true},
		{"non-zero byte at the end of the zero room", func(d []byte) { d[len(d)-1] = 1 }, true},
		{"non-zero byte at the edge of a tear's reach", func(d []byte) { d[end+maxFrame-1] = 1 }, false},
	} {
		data := bytes.Clone(clean)
		tc.damage(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := reopen(t, path)
		if tc.refuse && err == nil {
			t.Fatalf("%s: opened with %d records; must be rejected, not replayed around", tc.what, len(recs))
		}
		if !tc.refuse && (err != nil || len(recs) != n) {
			t.Fatalf("%s: %d records, %v; want all %d", tc.what, len(recs), err, n)
		}
	}
}

// TestJournalBadFinalFrameTolerated: a frame that is all there but wrong —
// a flipped payload byte, a checksum that does not match — is excusable
// only as the log's final frame, where it is indistinguishable from a
// torn append; the journal opens with one record fewer and appends on.
func TestJournalBadFinalFrameTolerated(t *testing.T) {
	for _, back := range []int64{1, 3} { // the payload's last byte, one mid-payload
		path := journalWith(t, 4)
		data, _, end := lastFrame(t, path)
		data[end-back] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		requireCleanAppend(t, fmt.Sprintf("byte %d from the frame's end flipped", back), path, 3)
	}
	path := journalWith(t, 4)
	data, start, _ := lastFrame(t, path)
	data[start+4] ^= 0xff // the checksum itself
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	requireCleanAppend(t, "checksum flipped", path, 3)
}

// spyFsync records every flush the package makes — the file's or
// directory's path, in order — and fails those whose path err names.
type spyFsync struct {
	synced []string
	err    map[string]error
}

// newSpyFsync puts a spy behind the package's fsync seam for the rest of
// the test. Flushes it does not fail still reach the disk.
func newSpyFsync(t testing.TB) *spyFsync {
	t.Helper()
	spy, real := &spyFsync{err: map[string]error{}}, fsync
	fsync = func(f *os.File) error {
		spy.synced = append(spy.synced, f.Name())
		if err := spy.err[f.Name()]; err != nil {
			return err
		}
		return real(f)
	}
	t.Cleanup(func() { fsync = real })
	return spy
}

// count returns how many times path was flushed.
func (s *spyFsync) count(path string) (n int) {
	for _, p := range s.synced {
		if p == path {
			n++
		}
	}
	return n
}

// TestJournalDirectoryEntryDurable: a new journal.wal is only as durable
// as its name. POSIX lets a crash lose a file whose directory was never
// fsync'd, and every record acknowledged into it with it.
func TestJournalDirectoryEntryDurable(t *testing.T) {
	t.Run("syncs the directory once when the journal is new, not when it exists", func(t *testing.T) {
		spy := newSpyFsync(t)
		dir := t.TempDir()
		path := filepath.Join(dir, journalFile)
		j, _, err := openJournal(path, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if got := spy.synced; len(got) != 2 || got[0] != path || got[1] != dir {
			t.Fatalf("creating the journal flushed %q, want the file and then its directory", got)
		}
		if _, err := reopen(t, path); err != nil {
			t.Fatal(err)
		}
		if spy.count(dir) != 1 {
			t.Fatalf("reopening an existing journal flushed its directory again: %q", spy.synced)
		}
	})
	t.Run("syncs the parent when Open creates the data directory", func(t *testing.T) {
		spy := newSpyFsync(t)
		parent := t.TempDir()
		dir := filepath.Join(parent, "data")
		e, err := Open(dir, testConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		e.crash()
		if spy.count(parent) != 1 || spy.count(dir) != 1 {
			t.Fatalf("first Open flushed %q, want the new directory's parent and the directory once each", spy.synced)
		}
		e, err = Open(dir, testConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		e.crash()
		if spy.count(parent) != 1 || spy.count(dir) != 1 {
			t.Fatalf("second Open flushed a directory again: %q", spy.synced)
		}
	})
	t.Run("Open fails, creating nothing it will later trust, if that sync fails", func(t *testing.T) {
		spy := newSpyFsync(t)
		dir := t.TempDir()
		spy.err[dir] = errors.New("some-error")
		e, err := Open(dir, testConfig(), 0)
		if !errors.Is(err, spy.err[dir]) {
			if err == nil {
				e.crash()
			}
			t.Fatalf("Open over a directory that cannot be flushed: %v, want the flush's error", err)
		}
		if _, err := os.Stat(filepath.Join(dir, journalFile)); !os.IsNotExist(err) {
			t.Fatalf("a journal whose name may not be durable was left for the next Open to trust (stat: %v)", err)
		}
		delete(spy.err, dir)
		e, err = Open(dir, testConfig(), 0)
		if err != nil {
			t.Fatalf("Open once the directory can be flushed: %v", err)
		}
		e.crash()
		if spy.count(dir) != 2 {
			t.Fatalf("the retry did not flush the directory again: %q", spy.synced)
		}
	})
}

// TestJournalGrowsByChunks appends across two chunk boundaries. Every
// Append costs exactly one flush of the file and nothing else, the growing
// ones included; the file's size is a multiple of the chunk throughout and
// changes only twice; and a copy of the file taken right after each growth
// — what a crash then would leave — reopens to every acknowledged record.
func TestJournalGrowsByChunks(t *testing.T) {
	path := filepath.Join(t.TempDir(), journalFile)
	j, _, err := openJournal(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	spy := newSpyFsync(t)
	grown, size := 0, int64(journalChunk)
	for n, past := 1, 0; past < 10; n++ { // until ten appends into the third chunk
		if grown == 2 {
			past++
		}
		rec := benchRecord()
		rec.VM.ID = n
		if err := j.Append(&rec); err != nil {
			t.Fatal(err)
		}
		if len(spy.synced) != n || spy.count(path) != n {
			t.Fatalf("append %d: %d flushes so far, %d of them the journal's; want one per append", n, len(spy.synced), spy.count(path))
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size()%journalChunk != 0 || info.Size() != j.size || j.off > j.size {
			t.Fatalf("append %d: file is %d bytes, journal says %d allocated and %d used", n, info.Size(), j.size, j.off)
		}
		if info.Size() == size {
			continue
		}
		grown, size = grown+1, info.Size()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		crashed := filepath.Join(t.TempDir(), journalFile)
		if err := os.WriteFile(crashed, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := reopen(t, crashed)
		if err != nil || len(recs) != n || recs[n-1].VM.ID != n {
			t.Fatalf("crash copy after growth %d: %d of %d records, %v", grown, len(recs), n, err)
		}
	}
	if grown != 2 || size != 3*journalChunk {
		t.Fatalf("file grew %d times to %d bytes, want twice to %d", grown, size, 3*journalChunk)
	}
}

// scriptRecord is journalScript's i-th record: its varints widen and narrow
// with i, so frames run from 24 to ≈60 bytes and their ends fall at every
// offset of a directBlock.
func scriptRecord(i int) Record {
	return Record{Kind: RecordSwap, Algo: "RISA-BF"[:i%8],
		VM:    workload.VM{ID: i, Arrival: int64(i) << (i % 50), Lifetime: 10, Req: units.Vec(1, 1, 0)},
		Fault: faults.Event{T: -int64(i) << (i % 47)}}
}

// journalScript drives one journal from a copy of testdata/dense_data's
// dense file: its first append rounds the file up to the chunk, appends
// then grow it twice more with a clean reopen between the growths, and a
// crash that tears the last frame is reopened, cleared and appended past.
// After every append the maxFrame bytes behind the log's end must read as
// zeros, and after every open it hands the journal to opened. It returns
// the file's bytes and the log that must lead them: the fixture's bytes
// and every acknowledged frame, in order.
func journalScript(t *testing.T, opened func(*Journal)) (file, log []byte) {
	t.Helper()
	path := filepath.Join(copyDataDir(t, "dense_data"), journalFile)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *Journal {
		j, _, err := openJournal(path, parentConfig())
		if err != nil {
			t.Fatal(err)
		}
		opened(j)
		return j
	}
	r, err := os.Open(path) // reads what a crash would leave behind each append
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	j, n, straddled, behind := open(), 0, 0, make([]byte, maxFrame)
	appendUntil := func(size int64, extra int) {
		for ; j.size < size || extra > 0; n++ {
			if j.size >= size {
				extra--
			}
			rec, off := scriptRecord(n), j.off
			if err := j.Append(&rec); err != nil {
				t.Fatal(err)
			}
			if off/directBlock != (j.off-1)/directBlock {
				straddled++
			}
			log = appendFrame(log, &rec)
			if k, _ := r.ReadAt(behind, j.off); len(bytes.Trim(behind[:k], "\x00")) != 0 {
				t.Fatalf("append %d left non-zero bytes behind the log's end at %d", n, j.off)
			}
		}
	}
	appendUntil(2*journalChunk, 10)
	j.Close()
	j = open()
	appendUntil(3*journalChunk, 10)
	j.Close()
	_, start, _ := lastFrame(t, path)
	if !tearLastFrame(t, path, tearTail, 3) {
		t.Fatal("the tear left the last frame whole")
	}
	log = log[:start]
	j = open()
	appendUntil(3*journalChunk, 200)
	j.Close()
	if straddled < 10 {
		t.Fatalf("%d frames crossed a %d-byte block boundary, want at least 10", straddled, directBlock)
	}
	if file, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return file, log
}

// TestDirectJournalMatchesBuffered runs journalScript with appends through
// the O_DIRECT handle, then twice with the buffered handle appending: once
// with the O_DIRECT open refused, as a filesystem without direct I/O
// refuses it, and once with the open granted but the aligned read behind
// it failing. The three files must be byte for byte the file the buffered
// writer has always written: the log, then zeros up to a multiple of the
// chunk.
func TestDirectJournalMatchesBuffered(t *testing.T) {
	real := openDirect
	t.Cleanup(func() { openDirect = real })
	var direct *os.File // what the last open through the seam returned
	openDirect = func(path string) (*os.File, error) {
		f, err := real(path)
		direct = f
		return f, err
	}
	file, log := journalScript(t, func(j *Journal) {
		if direct == nil {
			t.Log("this filesystem refuses O_DIRECT: both runs append through the buffered handle")
		} else if j.f != direct {
			t.Fatal("the O_DIRECT handle opened, but the journal appends through another")
		}
	})
	if want := append(bytes.Clone(log), make([]byte, chunkCeil(int64(len(log)))-int64(len(log)))...); !bytes.Equal(file, want) {
		t.Fatalf("direct appends wrote %d bytes that are not the log's %d and zeros to %d", len(file), len(log), len(want))
	}
	for _, refuse := range []struct {
		what string
		open func(path string) (*os.File, error)
	}{
		{"open refused", func(string) (*os.File, error) { direct = nil; return nil, syscall.EINVAL }},
		{"aligned read refused", func(path string) (f *os.File, err error) { // its reads fail as misaligned direct reads do
			direct, err = os.OpenFile(path, os.O_WRONLY, 0)
			return direct, err
		}},
	} {
		openDirect = refuse.open
		fallback, _ := journalScript(t, func(j *Journal) {
			if j.f == direct {
				t.Fatalf("%s: the journal appends through the refused handle", refuse.what)
			}
		})
		if !bytes.Equal(fallback, file) {
			t.Fatalf("%s: the buffered handle wrote other bytes", refuse.what)
		}
	}
}

// TestMaxFrameCoversRegistry holds maxFrame, the reach the torn-tail policy
// allows a single append, to what Append can be asked to write: every
// integer at its widest and the longest registered algorithm name fit, and
// a frame that would not is refused with the file untouched and the
// journal still usable.
func TestMaxFrameCoversRegistry(t *testing.T) {
	m := int64(math.MinInt64)
	widest := Record{Seq: m, Kind: RecordSwap,
		VM:    workload.VM{ID: math.MinInt, Arrival: m, Lifetime: m, Tier: math.MinInt, Req: units.Vec(units.Amount(m), units.Amount(m), units.Amount(m))},
		Fault: faults.Event{T: m, Repair: true, Tier: faults.Tier(math.MinInt), Rack: math.MinInt, Box: math.MinInt}}
	for _, name := range sched.Registered() {
		widest.Algo = name
		if n := len(appendFrame(nil, &widest)); n > maxFrame {
			t.Fatalf("a record naming %q frames to %d bytes, past maxFrame = %d: raise maxAlgoName", name, n, maxFrame)
		}
	}
	path := journalWith(t, 2)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := openJournal(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	widest.Algo = strings.Repeat("x", maxFrame)
	if err := j.Append(&widest); err == nil {
		t.Fatalf("a %d-byte frame was appended past maxFrame = %d", len(appendFrame(nil, &widest)), maxFrame)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("the refused append wrote to the file")
	}
	ok := Record{Kind: RecordAddRack}
	if err := j.Append(&ok); err != nil || ok.Seq != 3 {
		t.Fatalf("append after a refused frame: seq %d, %v", ok.Seq, err)
	}
}

// FuzzJournalTail writes arbitrary bytes where a crash could have left
// them — over the maxFrame bytes behind a valid log — and, separately, one
// byte anywhere in the zero room beyond. Open may refuse. If it opens, it
// returns exactly the acknowledged records: never one more, never one
// fewer, never a panic; and the journal then appends and reopens cleanly.
// A byte beyond a tear's reach must be refused.
func FuzzJournalTail(f *testing.F) {
	f.Add(uint8(3), []byte{}, uint16(0), byte(0))
	f.Add(uint8(0), []byte{1}, uint16(0), byte(0))
	f.Add(uint8(9), []byte{0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7}, uint16(0), byte(0))
	f.Add(uint8(5), []byte{23, 0, 0, 0, 1, 2, 3, 4, 5, 6}, uint16(40000), byte(0))
	f.Add(uint8(5), []byte{}, uint16(0), byte(9))
	f.Add(uint8(40), bytes.Repeat([]byte{0xff}, maxFrame), uint16(65535), byte(1))
	f.Fuzz(func(t *testing.T, nRecs uint8, junk []byte, far uint16, farByte byte) {
		n := int(nRecs) % 16
		path := journalWith(t, n)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		offs := frameOffsets(t, data)
		end := offs[len(offs)-1]
		junk = junk[:min(len(junk), maxFrame)]
		if len(junk) >= frameHeader {
			if l := int(binary.LittleEndian.Uint32(junk)); l > 0 && l <= len(junk)-frameHeader &&
				crc32.ChecksumIEEE(junk[frameHeader:frameHeader+l]) == binary.LittleEndian.Uint32(junk[4:]) {
				t.Skip("the junk is a frame that passes its checksum: a whole record, not a tear")
			}
		}
		copy(data[end:], junk)
		beyond := data[end+maxFrame:]
		beyond[int(far)%len(beyond)] = farByte
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := openJournal(path, testConfig())
		if err != nil {
			return // refusing is always allowed
		}
		defer j.Close()
		if farByte != 0 {
			t.Fatalf("opened with byte %#x at offset %d, %d past the log's end", farByte, int(end)+maxFrame+int(far)%len(beyond), maxFrame+int(far)%len(beyond))
		}
		if len(recs) != n {
			t.Fatalf("%d records acknowledged, Open returned %d", n, len(recs))
		}
		for i, rec := range recs {
			if rec.Seq != int64(i+1) || rec.VM.ID != i+1 {
				t.Fatalf("record %d reads %+v", i, rec)
			}
		}
		rec := Record{Kind: RecordAddRack}
		if err := j.Append(&rec); err != nil || rec.Seq != int64(n+1) {
			t.Fatalf("append after the repair: seq %d, %v", rec.Seq, err)
		}
		j.Close()
		if recs, err := reopen(t, path); err != nil || len(recs) != n+1 {
			t.Fatalf("after repair and append: %d records, %v; want %d", len(recs), err, n+1)
		}
	})
}

// TestJournalShapeMismatchRejected pins the header check.
func TestJournalShapeMismatchRejected(t *testing.T) {
	path := journalWith(t, 1)
	other := testConfig()
	other.Topology.Racks = 9
	if _, _, err := openJournal(path, other); err == nil {
		t.Fatal("journal from a different datacenter shape must be rejected")
	}
}

// TestJournalNotAJournal pins the magic check: a garbage file is refused,
// and so is a risawal1 journal, the format before this one, with a message
// naming the last commit whose build rewrites it.
func TestJournalNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(path, testConfig()); err == nil {
		t.Fatal("garbage file must be rejected")
	}
	if err := os.WriteFile(path, []byte("risawal1\x10\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(path, testConfig()); err == nil || !strings.Contains(err.Error(), "commit 2609937") {
		t.Fatalf("a risawal1 journal: %v; want a refusal naming the commit that migrates it", err)
	}
}

// benchRecord is a placement the size the benchmark's service workloads
// journal: five-digit sequence and VM ID, six-digit arrival.
func benchRecord() Record {
	return Record{Seq: 25_000, Kind: RecordPlace,
		VM: workload.VM{ID: 25_000, Arrival: 312_500, Lifetime: 3_000, Tier: 2, Req: units.Vec(16, 64, 512)}}
}

// TestRecordSize pins a framed placement record at 48 bytes or fewer. The
// daemon's round trip is one fsync of whatever Append wrote, and the
// ledger's svc.journal.bytes_per_record gate is < 48 (it was 269 when each
// record carried gob's type descriptors): a field added to the payload as
// a fixed-width integer, or a second frame header, would pass every
// round-trip test and show only here.
func TestRecordSize(t *testing.T) {
	rec := benchRecord()
	if n := len(appendFrame(nil, &rec)); n > 48 {
		t.Fatalf("framed placement record is %d bytes, want ≤ 48", n)
	}
}

// TestAllocsRecordEncode pins Append's processor work per placement — frame
// header, payload and checksum into a reused buffer — at zero allocations:
// it is on every placement's critical path, ahead of the flush.
func TestAllocsRecordEncode(t *testing.T) {
	rec := benchRecord()
	buf := make([]byte, 0, 64)
	schedtest.ZeroAllocs(t, 1, func() { buf = appendFrame(buf[:0], &rec) })
	if len(buf) == 0 {
		t.Fatal("empty frame")
	}
}

// TestRecordCodecRejects pins what decodeRecord refuses: every strict
// prefix of a payload, a payload with a byte after Algo, a kind no
// engine would apply, and a nonzero pod slot.
func TestRecordCodecRejects(t *testing.T) {
	rec := Record{Seq: 7, Kind: RecordSwap, Algo: "RISA-BF"}
	p := appendRecord(nil, &rec)
	if got, err := decodeRecord(p); err != nil || got != rec {
		t.Fatalf("roundtrip: %+v, %v", got, err)
	}
	for n := 0; n < len(p); n++ {
		if _, err := decodeRecord(p[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte payload decoded", n, len(p))
		}
	}
	if _, err := decodeRecord(append(p[:len(p):len(p)], 0)); err == nil {
		t.Fatal("payload with a trailing byte decoded")
	}
	for _, kind := range []RecordKind{0, RecordAddRack + 1, 255} {
		bad := Record{Seq: 1, Kind: kind}
		if _, err := decodeRecord(appendRecord(nil, &bad)); err == nil {
			t.Fatalf("record of unknown kind %d decoded", kind)
		}
	}
	mut := Record{Seq: 8, Kind: RecordMutate, Fault: faults.Event{T: 5, Tier: faults.RackTier, Rack: 2}}
	if got, err := decodeRecord(withPodSlot(appendRecord(nil, &mut), 0)); err != nil || got != mut {
		t.Fatalf("a zero pod slot spliced in: %+v, %v", got, err)
	}
	for _, pod := range []int64{1, -1, math.MaxInt64} {
		if _, err := decodeRecord(withPodSlot(appendRecord(nil, &mut), pod)); err == nil {
			t.Fatalf("record with pod slot %d decoded", pod)
		}
	}
}

// withPodSlot returns a copy of payload p with its pod slot — the 13th
// varint, which appendRecord always writes as the single byte 0 — replaced
// by pod.
func withPodSlot(p []byte, pod int64) []byte {
	off := 0
	for range 12 {
		_, n := binary.Varint(p[off:])
		off += n
	}
	out := binary.AppendVarint(append([]byte(nil), p[:off]...), pod)
	return append(out, p[off+1:]...)
}

// FuzzRecordCodec holds the codec to three properties. Any record —
// negative and extreme integers, arbitrary Algo bytes — encodes to a
// payload that decodes to exactly that record, behind whatever the buffer
// already held; the same payload with pod in its pod slot decodes only if
// pod is 0. And arbitrary payload bytes never panic the decoder; whatever
// it accepts re-encodes to a payload that decodes to the same record.
func FuzzRecordCodec(f *testing.F) {
	f.Add(int64(1), uint8(0), int64(1), int64(0), int64(10), int64(1), int64(1), int64(0), int64(0),
		int64(0), false, int64(0), int64(0), int64(0), int64(0), "", []byte{})
	f.Add(int64(math.MaxInt64), uint8(2), int64(math.MinInt64), int64(-1), int64(math.MaxInt64), int64(-64), int64(1<<40), int64(0), int64(2),
		int64(math.MinInt64), true, int64(-3), int64(math.MaxInt32), int64(17), int64(-17), "RISA-BF\x00\xff", appendRecord(nil, &Record{Seq: 3, Kind: RecordMutate}))
	f.Fuzz(func(t *testing.T, seq int64, kind uint8, id, arrival, lifetime, cpu, ram, sto, tier,
		ft int64, repair bool, ftier, pod, rack, box int64, algo string, raw []byte) {
		rec := Record{Seq: seq, Kind: RecordPlace + RecordKind(kind%4), Algo: algo,
			VM: workload.VM{ID: int(id), Arrival: arrival, Lifetime: lifetime, Tier: int(tier),
				Req: units.Vec(units.Amount(cpu), units.Amount(ram), units.Amount(sto))},
			Fault: faults.Event{T: ft, Repair: repair, Tier: faults.Tier(ftier), Rack: int(rack), Box: int(box)}}
		buf := appendRecord([]byte("prefix"), &rec)
		if string(buf[:6]) != "prefix" {
			t.Fatalf("appendRecord overwrote the buffer's contents: %q", buf[:6])
		}
		if got, err := decodeRecord(buf[6:]); err != nil || got != rec {
			t.Fatalf("roundtrip of %+v: %+v, %v", rec, got, err)
		}
		if _, err := decodeRecord(withPodSlot(buf[6:], pod)); (err == nil) != (pod == 0) {
			t.Fatalf("pod slot %d: decode error %v", pod, err)
		}
		got, err := decodeRecord(raw)
		if err != nil {
			return
		}
		if again, err := decodeRecord(appendRecord(nil, &got)); err != nil || again != got {
			t.Fatalf("bytes %x decode to %+v, which re-encodes to %+v, %v", raw, got, again, err)
		}
	})
}
