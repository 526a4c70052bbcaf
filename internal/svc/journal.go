package svc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"risa/internal/faults"
	"risa/internal/units"
	"risa/internal/workload"
)

// journalMagic identifies the journal file format; bump the trailing
// digit on incompatible record changes.
const (
	journalMagic = "risawal2"
	frameHeader  = 8 // [4-byte length][4-byte CRC32] lead every frame
)

// journalChunk is how much zero-filled room the journal file takes at a
// time. A flush of a write that changes the file's size also commits a
// filesystem-journal transaction for the inode; a write into blocks that
// are allocated, written and inside the size does not, so the file grows
// rarely and by a lot: 64 KiB ÷ ≈31 bytes a placement ≈ 2100 appends a
// growth, and at most that much of a file is room nobody wrote to.
const journalChunk = 64 << 10

// directBlock is the unit of an O_DIRECT append: its offset, length and
// buffer address are multiples of it. It is a multiple of any logical sector.
const directBlock = 4 << 10

// maxAlgoName bounds Record.Algo: "RISA-BF" is the longest name in the
// sched registry (TestMaxFrameCoversRegistry fails when a longer one is
// registered). maxFrame is W, the largest frame Append writes — the header,
// recordInts varints and Algo's length at their longest, the longest name —
// and so the most a crash mid-append can leave behind the log's end.
const (
	maxAlgoName = 7 // len("RISA-BF")
	maxFrame    = frameHeader + (recordInts+1)*binary.MaxVarintLen64 + maxAlgoName
)

// RecordKind discriminates the operations a journal record can carry.
type RecordKind uint8

// The journaled operation kinds. Everything that changes engine state is
// journaled before it is applied; reads are not.
const (
	// RecordPlace is a placement request (VM is set).
	RecordPlace RecordKind = iota + 1
	// RecordMutate is a live fail/heal mutation (Fault is set).
	RecordMutate
	// RecordSwap is a scheduler hot-swap (Algo is set).
	RecordSwap
	// RecordAddRack brings the next spare rack into service.
	RecordAddRack
)

// Record is one journaled operation. Seq numbers start at 1 and are
// strictly consecutive; a gap means the file was tampered with and is
// rejected at open.
type Record struct {
	Seq   int64
	Kind  RecordKind
	VM    workload.VM  // RecordPlace
	Fault faults.Event // RecordMutate
	Algo  string       // RecordSwap
}

// recordInts is the number of signed varints that open a record payload:
// Seq, Kind, the VM's seven (ID, Arrival, Lifetime, Req[CPU], Req[RAM],
// Req[Storage], Tier) and the fault's six (T, Repair, Tier, a slot that is
// always 0, Rack, Box). The zero slot held a pod index when faults had a
// pod tier; keeping it keeps every record written before byte-compatible.
const recordInts = 15

// appendRecord appends rec's payload to buf: the recordInts varints, then
// Algo behind its uvarint length. Every field is written whatever the
// kind — an unset one is a single zero byte — so there is one layout and a
// placement is ≈23 bytes. It does not allocate once buf has the room.
func appendRecord(buf []byte, rec *Record) []byte {
	vm, ev := &rec.VM, &rec.Fault
	var repair int64
	if ev.Repair {
		repair = 1
	}
	for _, v := range [recordInts]int64{rec.Seq, int64(rec.Kind),
		int64(vm.ID), vm.Arrival, vm.Lifetime, int64(vm.Req[units.CPU]), int64(vm.Req[units.RAM]), int64(vm.Req[units.Storage]), int64(vm.Tier),
		ev.T, repair, int64(ev.Tier), 0, int64(ev.Rack), int64(ev.Box),
	} {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Algo)))
	return append(buf, rec.Algo...)
}

// decodeRecord inverts appendRecord and keeps no reference to p. It rejects a
// payload that ends early, carries bytes past Algo, names an unknown kind, or
// has a nonzero pod slot (no build wrote one: the daemon's mutations were
// always box- or rack-scope, with the pod index left at zero).
func decodeRecord(p []byte) (Record, error) {
	var f [recordInts]int64
	for i := range f {
		v, n := binary.Varint(p)
		if n <= 0 {
			return Record{}, io.ErrUnexpectedEOF
		}
		f[i], p = v, p[n:]
	}
	alen, n := binary.Uvarint(p)
	if n <= 0 || alen != uint64(len(p)-n) {
		return Record{}, fmt.Errorf("algo length %d with %d bytes left", alen, len(p)-n)
	}
	if f[1] < int64(RecordPlace) || f[1] > int64(RecordAddRack) {
		return Record{}, fmt.Errorf("unknown record kind %d", f[1])
	}
	if f[12] != 0 {
		return Record{}, fmt.Errorf("pod slot %d: faults have no pod tier", f[12])
	}
	return Record{Seq: f[0], Kind: RecordKind(f[1]), Algo: string(p[n:]),
		VM: workload.VM{ID: int(f[2]), Arrival: f[3], Lifetime: f[4], Tier: int(f[8]),
			Req: units.Vec(units.Amount(f[5]), units.Amount(f[6]), units.Amount(f[7]))},
		Fault: faults.Event{T: f[9], Repair: f[10] != 0, Tier: faults.Tier(f[11]), Rack: int(f[13]), Box: int(f[14])},
	}, nil
}

// Journal is a write-ahead log with per-record CRC framing. Every Append
// is fsync'd before it returns, so an acknowledged record survives
// kill -9. The file is the magic, one frame holding the gob of the
// Config, one frame per record, then zeros up to a multiple of
// journalChunk: the log owns room ahead of its append position, and an
// append overwrites zeros instead of growing the file. A frame is
// [4-byte little-endian length][4-byte CRC32 of the payload][payload:
// appendRecord's bytes]. The log ends at the first thing that does not
// read as the next frame — a zero header, in a file this code wrote — or
// at end-of-file: a file from before the room existed is dense, reads
// under the same rule, and is rounded up by its first append.
//
// Torn-tail policy (see scanJournal): frame k+1 is never started before
// frame k's Sync returned, so a crash leaves at most one unacknowledged
// frame, within maxFrame bytes of the log's end — a prefix of it, or a
// suffix under a header still zero, since the pages of an in-place write
// may persist in either order. Non-zero bytes there are zeroed at open; a
// non-zero byte further on is mid-file corruption, which recovery must
// refuse rather than silently replay around.
type Journal struct {
	f       *os.File // the append handle: O_DIRECT where the filesystem takes it
	nextSeq int64
	off     int64  // the log's end: where the next frame goes
	size    int64  // the file's size: off plus the zero room
	buf     []byte // Append's frame, reused
	// tail mirrors the file from the directBlock holding the log's end, then
	// zeros for the next block and a chunk: as far as one Append writes.
	tail   []byte
	failed error // the first WriteAt or Sync error; sticky, see Append
	// wrote and synced are the stage clock's readings when the last
	// Append's WriteAt and Sync returned: the write and sync stages of the
	// placement it journaled.
	wrote, synced int64
}

// chunkCeil rounds n up to a multiple of journalChunk.
func chunkCeil(n int64) int64 { return (n + journalChunk - 1) / journalChunk * journalChunk }

// blockCeil rounds n up to a multiple of directBlock.
func blockCeil(n int64) int64 { return (n + directBlock - 1) &^ (directBlock - 1) }

// openDirect opens the append handle past the page cache: a variable so that
// tests can refuse it, as a filesystem without direct I/O does.
var openDirect = func(path string) (*os.File, error) { return os.OpenFile(path, os.O_RDWR|oDirect, 0) }

// alignedBlock returns n zero bytes at a directBlock boundary in memory, as
// O_DIRECT needs; the Go heap does not move objects.
func alignedBlock(n int) []byte {
	b := make([]byte, n+directBlock)
	skip := -int(uintptr(unsafe.Pointer(&b[0]))) & (directBlock - 1)
	return b[skip : skip+n : skip+n]
}

// openJournal opens (or creates) the journal at path, validates the
// header against cfg, scans every intact record, zeroes what a torn
// append left behind them, and returns the records for replay and a
// journal that appends after them. A new file is header plus zero room in
// one Write and one Sync, then a sync of the directory: until its name is
// durable a crash can lose the file and every record acknowledged into
// it, so if that fails the file is removed, not left for a later open to
// trust. A dense file opens like any other: past this function all are the
// same.
// All that is done through a buffered handle; after the tail mirror is
// loaded, an O_DIRECT handle replaces it unless the filesystem refuses one.
func openJournal(path string, cfg Config) (j *Journal, recs []Record, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	j = &Journal{nextSeq: 1, size: info.Size(), tail: alignedBlock(2*directBlock + journalChunk)}
	if j.size == 0 {
		hdr, err := journalHeader(cfg)
		j.off, j.size = int64(len(hdr)), chunkCeil(int64(len(hdr)))
		if err == nil {
			_, err = f.Write(append(hdr, make([]byte, j.size-j.off)...))
		}
		if err == nil {
			err = fsync(f)
		}
		if err == nil {
			err = syncDir(filepath.Dir(path))
		}
		if err != nil {
			os.Remove(path)
			return nil, nil, fmt.Errorf("svc: initialize journal: %w", err)
		}
	} else {
		var torn bool
		recs, j.off, torn, err = scanJournal(f, cfg, j.size)
		if err != nil {
			return nil, nil, err
		}
		if torn { // back to zeros: nothing behind the next frame for a later scan to take for data
			_, err := f.WriteAt(make([]byte, min(maxFrame, j.size-j.off)), j.off)
			if err == nil {
				err = fsync(f)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("svc: clear torn journal tail: %w", err)
			}
		}
		j.nextSeq += int64(len(recs))
	}
	at := j.off &^ (directBlock - 1)
	if _, err := f.ReadAt(j.tail[:min(directBlock, j.size-at)], at); err != nil {
		return nil, nil, fmt.Errorf("svc: load journal tail: %w", err)
	}
	if d, err := openDirect(path); err == nil {
		probe := j.tail[directBlock : 2*directBlock]
		if n, _ := d.ReadAt(probe, 0); n > 0 { // an aligned transfer went through: so will Append's
			f.Close() // only read since its last Sync
			f = d
		} else {
			d.Close()
		}
		clear(probe)
	}
	j.f = f
	return j, recs, nil
}

// journalHeader returns what starts a journal file: the magic and the
// config echo frame. The echo stays gob — it is written once per file.
func journalHeader(cfg Config) ([]byte, error) {
	var echo bytes.Buffer
	if err := gob.NewEncoder(&echo).Encode(&cfg); err != nil {
		return nil, err
	}
	buf := append([]byte(journalMagic), make([]byte, frameHeader)...)
	return sealFrame(append(buf, echo.Bytes()...), len(journalMagic)), nil
}

// replaceFile atomically replaces path with what write produces: write
// path.tmp, fsync, close, rename over path, fsync the parent directory.
// Whichever step fails, no temp file is left behind.
func replaceFile(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// fsync forces a file, or a directory, to stable storage. Every flush in
// the package goes through it: a variable so that tests can count flushes
// and fail them.
var fsync = (*os.File).Sync

// syncDir fsyncs a directory: a name created in it or renamed into it is
// not durable before.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}

// scanJournal validates the header and reads records up to the log's
// end: the first offset where the next frame is not there — a zero or
// implausible header, a frame that fails its checksum or does not decode,
// a Seq out of order, end-of-file. What follows the end decides what it
// was (tornTail): bytes a torn append can have left are reported, anything
// beyond them is an error.
func scanJournal(f *os.File, cfg Config, size int64) (recs []Record, end int64, torn bool, err error) {
	r := &frameReader{br: bufio.NewReaderSize(f, 1<<16), off: int64(len(journalMagic)), size: size}
	magic, _ := r.br.Peek(len(journalMagic))
	switch string(magic) {
	case journalMagic:
	case "risawal1": // one gob stream per record, the format before this one
		return nil, 0, false, fmt.Errorf("svc: %s is a risawal1 journal, which this build does not read: "+
			"open the data directory once with a build at or before commit 2609937, which rewrites it as %s", f.Name(), journalMagic)
	default:
		return nil, 0, false, fmt.Errorf("svc: %s is not a risasvc journal", f.Name())
	}
	r.br.Discard(len(magic)) // just peeked: cannot fail
	var onDisk Config
	hdr, err := r.next()
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(hdr)).Decode(&onDisk)
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("svc: journal header unreadable: %w", err)
	}
	if !sameShape(onDisk, cfg) {
		return nil, 0, false, fmt.Errorf("svc: journal was written for a different datacenter shape (%+v)", onDisk.Topology)
	}
	var stop error // why the log ends where it does
	for end = r.off; stop == nil; {
		var rec Record
		payload, err := r.next()
		if err == nil {
			rec, err = decodeRecord(payload)
		}
		if want := int64(len(recs)) + 1; err == nil && rec.Seq != want {
			err = fmt.Errorf("seq %d, want %d", rec.Seq, want)
		}
		if stop = err; err == nil {
			if recs == nil { // records are near-uniform in length: size the slice once
				recs = make([]Record, 0, (size-end)/(r.off-end)+1)
			}
			recs, end = append(recs, rec), r.off
		}
	}
	torn, err = tornTail(f, end, size)
	if err != nil {
		return nil, 0, false, fmt.Errorf("svc: journal corrupt at offset %d (%v): %w", end, stop, err)
	}
	return recs, end, torn, nil
}

// tornTail reads the file from the log's end to its own. Non-zero bytes
// in the first maxFrame bytes are what one torn append can have left, and
// are reported; a non-zero byte beyond them is not, and is an error.
func tornTail(f *os.File, end, size int64) (torn bool, err error) {
	buf := make([]byte, min(1<<16, size-end))
	for off := end; off < size; off += int64(len(buf)) {
		buf = buf[:min(int64(len(buf)), size-off)]
		if _, err := f.ReadAt(buf, off); err != nil {
			return false, err
		}
		for i, b := range buf {
			if b == 0 {
				continue
			}
			if at := off + int64(i); at >= end+maxFrame {
				return false, fmt.Errorf("data at offset %d, further than a torn append reaches", at)
			}
			torn = true
		}
	}
	return torn, nil
}

// frameReader reads frames through one buffered reader into one reused
// payload buffer, tracking the offset behind the last frame read.
type frameReader struct {
	br   *bufio.Reader
	off  int64 // file offset behind the last frame read
	size int64 // file size: no frame reaches past it
	buf  []byte
}

// next reads one [len][crc][payload] frame; the payload is valid until
// the following call. Any error means there is no frame here — the zero
// room or end-of-file after a clean log, and otherwise for the caller's
// tail check to judge — and leaves off where it was.
func (r *frameReader) next() (payload []byte, err error) {
	hdr, err := r.br.Peek(frameHeader)
	if err != nil {
		return nil, err
	}
	n, sum := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 {
		return nil, io.EOF // zero room: no record has an empty payload
	}
	if limit := uint32(1 << 26); n > limit || r.off+frameHeader+int64(n) > r.size {
		return nil, fmt.Errorf("frame length %d", n)
	}
	r.buf = append(r.buf[:0], make([]byte, n)...) // reused, grown on demand
	r.br.Discard(frameHeader)                     // just peeked: cannot fail
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(r.buf) != sum {
		return nil, fmt.Errorf("frame checksum mismatch")
	}
	r.off += frameHeader + int64(n)
	return r.buf, nil
}

// Append journals one record and forces it to stable storage. The
// record's Seq is assigned here; the engine applies the operation only
// after Append returns. The frame is built in one reused buffer, copied
// into the tail mirror, and the directBlocks it touches go out whole with
// one WriteAt and one Sync. When they pass the file's end, the same write
// carries zeros up to the next multiple of journalChunk: growing costs no
// second flush, and only that one Sync in ≈2100 pays for a size change. A
// frame longer than maxFrame is refused unwritten: the torn-tail policy
// rests on that bound.
//
// The first failed WriteAt or Sync is final: the file may hold a partial
// frame, or pages a later fsync would report clean without having
// written them, so every later Append returns that error without touching
// the file. Reopening the directory, which clears a torn tail, is the
// recovery.
func (j *Journal) Append(rec *Record) error {
	if j.failed != nil {
		return fmt.Errorf("journal unusable since an earlier append failed: %w", j.failed)
	}
	rec.Seq = j.nextSeq
	j.buf = appendFrame(j.buf[:0], rec)
	if len(j.buf) > maxFrame {
		return fmt.Errorf("record frame of %d bytes exceeds the %d-byte limit", len(j.buf), maxFrame)
	}
	at, end, size := j.off&^(directBlock-1), j.off+int64(len(j.buf)), j.size
	stop := blockCeil(end)
	if stop > size { // end > size, but for the unaligned end of a dense file's torn tail
		size = chunkCeil(end)
		stop = size
	}
	copy(j.tail[j.off-at:], j.buf)
	_, err := j.f.WriteAt(j.tail[:stop-at], at)
	j.wrote = stageClock()
	if err == nil {
		err = fsync(j.f)
	}
	j.synced = stageClock()
	if err != nil {
		j.failed = err
		return err
	}
	j.off, j.size = end, size
	j.nextSeq++
	if next := end &^ (directBlock - 1); next > at { // the log's end crossed into the next block
		copy(j.tail, j.tail[next-at:next-at+directBlock])
		clear(j.tail[directBlock : next-at+directBlock])
	}
	return nil
}

// NextSeq returns the sequence number the next Append will assign.
func (j *Journal) NextSeq() int64 { return j.nextSeq }

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// appendFrame appends rec to buf as one frame.
func appendFrame(buf []byte, rec *Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	return sealFrame(appendRecord(buf, rec), start)
}

// sealFrame fills in the frame header reserved at buf[start:] for the
// payload that runs from there to the end of buf.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}
