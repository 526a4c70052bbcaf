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

	"risa/internal/faults"
	"risa/internal/units"
	"risa/internal/workload"
)

// journalMagic identifies the journal file format; bump the trailing
// digit on incompatible record changes. legacyMagic is the format before
// it (one self-contained gob stream per record), which openJournal
// rewrites in place the first time it meets one.
const (
	journalMagic = "risawal2"
	legacyMagic  = "risawal1"
	frameHeader  = 8 // [4-byte length][4-byte CRC32] lead every frame
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
// Req[Storage], Tier) and the fault's six (T, Repair, Tier, Pod, Rack, Box).
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
		ev.T, repair, int64(ev.Tier), int64(ev.Pod), int64(ev.Rack), int64(ev.Box),
	} {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Algo)))
	return append(buf, rec.Algo...)
}

// decodeRecord inverts appendRecord and keeps no reference to p. It rejects a
// payload that ends early, carries bytes past Algo, or names an unknown kind.
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
	return Record{Seq: f[0], Kind: RecordKind(f[1]), Algo: string(p[n:]),
		VM: workload.VM{ID: int(f[2]), Arrival: f[3], Lifetime: f[4], Tier: int(f[8]),
			Req: units.Vec(units.Amount(f[5]), units.Amount(f[6]), units.Amount(f[7]))},
		Fault: faults.Event{T: f[9], Repair: f[10] != 0, Tier: faults.Tier(f[11]), Pod: int(f[12]), Rack: int(f[13]), Box: int(f[14])},
	}, nil
}

// Journal is an append-only write-ahead log with per-record CRC framing.
// Every Append is fsync'd before it returns, so an acknowledged record
// survives kill -9. The file is the magic, one frame holding the gob of
// the Config, then one frame per record; a frame is [4-byte little-endian
// length][4-byte CRC32 of the payload][payload: appendRecord's bytes].
//
// Torn-tail policy (see openJournal): a record that fails its checksum
// or runs past end-of-file is tolerated — and truncated away — only if
// it is the file's final frame, the signature of a crash mid-append.
// A bad record with more data after it means mid-file corruption, which
// recovery must refuse rather than silently replay around.
type Journal struct {
	f       *os.File
	nextSeq int64
	buf     []byte // Append's frame, reused
	failed  error  // the first Write or Sync error; sticky, see Append
}

// openJournal opens (or creates) the journal at path, validates the
// header against cfg, scans every intact record, truncates a torn tail,
// and leaves the file positioned for append. The scanned records are
// returned for replay. A risawal1 file is first rewritten as risawal2 and
// then opened like any other: past this function a migrated directory and
// a fresh one are the same.
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
	if info.Size() == 0 {
		hdr, err := journalHeader(cfg)
		if err == nil {
			_, err = f.Write(hdr)
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("svc: initialize journal: %w", err)
		}
		return &Journal{f: f, nextSeq: 1}, nil, nil
	}
	recs, end, legacy, err := scanJournal(f, cfg, info.Size())
	if err != nil {
		return nil, nil, err
	}
	if legacy {
		f.Close()
		if err := migrateJournal(path, cfg, recs); err != nil {
			return nil, nil, fmt.Errorf("svc: migrate %s journal: %w", legacyMagic, err)
		}
		return openJournal(path, cfg)
	}
	if end < info.Size() {
		// Torn tail from a crash mid-append: drop it so the next append
		// starts at a clean frame boundary.
		if err := f.Truncate(end); err != nil {
			return nil, nil, err
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, nextSeq: int64(len(recs)) + 1}, recs, nil
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

// migrateJournal rewrites a risawal1 journal's intact records in the current
// format, built in memory and moved into place by replaceFile: a crash before
// the rename leaves the old file whole and a stale .tmp for the next to truncate.
func migrateJournal(path string, cfg Config, recs []Record) error {
	buf, err := journalHeader(cfg)
	if err != nil {
		return err
	}
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	return replaceFile(path, func(f *os.File) error {
		_, err := f.Write(buf)
		return err
	})
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
		err = f.Sync()
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

// syncDir fsyncs a directory: a rename inside it is not durable before.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// scanJournal validates the header and reads records until the end of
// the intact prefix, returning the records and the file offset where the
// intact prefix ends. A bad final frame is tolerated (torn tail); a bad
// frame with data after it is an error. legacy reports a risawal1 file.
func scanJournal(f *os.File, cfg Config, size int64) (recs []Record, end int64, legacy bool, err error) {
	r := &frameReader{br: bufio.NewReaderSize(f, 1<<16), off: int64(len(journalMagic)), size: size}
	magic, _ := r.br.Peek(len(journalMagic))
	decode := decodeRecord
	switch string(magic) {
	case journalMagic:
	case legacyMagic: // a self-contained gob stream per record, read only to be rewritten
		legacy, decode = true, func(p []byte) (rec Record, err error) {
			err = gob.NewDecoder(bytes.NewReader(p)).Decode(&rec)
			return rec, err
		}
	default:
		return nil, 0, false, fmt.Errorf("svc: %s is not a risasvc journal", f.Name())
	}
	r.br.Discard(len(magic)) // just peeked: cannot fail
	var onDisk Config
	hdr, _, err := r.next()
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(hdr)).Decode(&onDisk)
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("svc: journal header unreadable: %w", err)
	}
	if !sameShape(onDisk, cfg) {
		return nil, 0, false, fmt.Errorf("svc: journal was written for a different datacenter shape (%+v)", onDisk.Topology)
	}
	end = r.off
	for r.off < size {
		payload, torn, err := r.next()
		if torn {
			// The bad frame's declared extent reaches end-of-file: a crash
			// mid-append. Everything before it is intact.
			return recs, end, legacy, nil
		}
		if err != nil {
			return nil, 0, false, fmt.Errorf("svc: journal corrupt at offset %d: %w", end, err)
		}
		rec, derr := decode(payload)
		if derr != nil {
			if r.off >= size {
				return recs, end, legacy, nil // undecodable final frame: torn tail
			}
			return nil, 0, false, fmt.Errorf("svc: journal record at offset %d undecodable: %v", end, derr)
		}
		if want := int64(len(recs)) + 1; rec.Seq != want {
			return nil, 0, false, fmt.Errorf("svc: journal record at offset %d has seq %d, want %d", end, rec.Seq, want)
		}
		if recs == nil { // records are near-uniform in length: size the slice once
			recs = make([]Record, 0, (size-end)/(r.off-end)+1)
		}
		recs = append(recs, rec)
		end = r.off
	}
	return recs, end, legacy, nil
}

// frameReader reads frames through one buffered reader into one reused
// payload buffer, tracking the offset where the intact prefix ends.
type frameReader struct {
	br   *bufio.Reader
	off  int64 // file offset of the next unread byte
	size int64 // file size: a frame declared to reach past it is torn
	buf  []byte
}

// next reads one [len][crc][payload] frame; the payload is valid until
// the following call. torn is true when the frame's declared extent runs
// past size (the only way a crash mid-append can look) or the file's last
// frame fails its checksum; a mismatch anywhere else is only an error.
func (r *frameReader) next() (payload []byte, torn bool, err error) {
	hdr, err := r.br.Peek(frameHeader)
	if err != nil {
		return nil, true, err
	}
	n, sum := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:])
	r.off += frameHeader
	if r.off+int64(n) > r.size {
		// The declared extent runs past end-of-file — a torn append (even a
		// garbage length lands here, since the payload was never written).
		return nil, true, io.ErrUnexpectedEOF
	}
	if maxFrame := uint32(1 << 26); n > maxFrame {
		return nil, false, fmt.Errorf("frame length %d exceeds limit", n)
	}
	r.buf = append(r.buf[:0], make([]byte, n)...) // reused, grown on demand
	r.br.Discard(frameHeader)                     // just peeked: cannot fail
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return nil, true, err
	}
	r.off += int64(n)
	if crc32.ChecksumIEEE(r.buf) != sum {
		return nil, r.off >= r.size, fmt.Errorf("frame checksum mismatch")
	}
	return r.buf, false, nil
}

// Append journals one record and forces it to stable storage. The
// record's Seq is assigned here; the engine applies the operation only
// after Append returns. The frame is built in one reused buffer and
// reaches the file in a single Write.
//
// The first failed Write or Sync is final: the file may end in a partial
// frame, or in pages a later fsync would report clean without having
// written them, so every later Append returns that error without touching
// the file. Reopening the directory, which truncates a torn tail, is the
// recovery.
func (j *Journal) Append(rec *Record) error {
	if j.failed != nil {
		return fmt.Errorf("journal unusable since an earlier append failed: %w", j.failed)
	}
	rec.Seq = j.nextSeq
	j.buf = appendFrame(j.buf[:0], rec)
	_, err := j.f.Write(j.buf)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.failed = err
		return err
	}
	j.nextSeq++
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
