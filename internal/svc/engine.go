package svc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"risa/internal/faults"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/topology"
	"risa/internal/workload"
)

// Journal and snapshot file names inside the engine's data directory.
const (
	journalFile  = "journal.wal"
	snapshotFile = "snapshot.gob"
)

// Engine is the daemon's single-writer state machine: one sim.Driver,
// one write-ahead journal, and the placement history. All methods must
// be called from one goroutine (the server's worker loop); the Engine
// has no locks by design — serialization is the concurrency model, as
// it is for the schedulers themselves.
//
// Durability contract: an operation is applied only after its journal
// record is fsync'd, and placement requests are deduplicated by VM ID,
// so an at-least-once client (retry until a response arrives) gets
// exactly-once placement across crashes — a retry of an operation that
// was journaled but not acknowledged returns the replayed outcome.
type Engine struct {
	cfg Config
	dir string

	j  *Journal
	st *sched.State
	d  *sim.Driver

	algo      string
	inService int // racks serving traffic; the rest are dark spares

	history []Outcome
	seen    map[int]int // VM ID → history index, the dedup map
	// accepted and rejected count history's decisions per VM tier (see
	// count), so GET /stats does not rescan the history on the worker.
	accepted, rejected [workload.NumTiers]int64

	snapEvery int
	sinceSnap int
	snapErr   error     // how the last WriteSnapshot ended
	snapshots histogram // how long each WriteSnapshot took
	// snapBytes and snapAt describe the snapshot file in place: its size
	// and when it was written (zero while there is none). A WriteSnapshot
	// that succeeds sets them, and Open reads them once off a file already
	// on disk, so GET /stats never touches the file system.
	snapBytes int64
	snapAt    time.Time

	// recovery is how long Open took, replayed how many journal records it
	// applied behind the snapshot; GET /metrics reports both.
	recovery time.Duration
	replayed int
}

// DefaultSnapshotEvery is the number of journal records between automatic
// snapshots when the caller names none; it bounds what a reopen replays.
// The former default, 256, dates from a gob decoder per record at ≈25 µs:
// 256 × 25 µs ≈ 6.5 ms of replay. A record now costs 1–2.3 µs to decode and
// apply (≈1.8 typical), and 6.5 ms ÷ 1.8 µs ≈ 3600: the bound holds at 4096.
// Each snapshot stalls the single writer, for 5.4–12.3 ms at 10k decisions
// and 10.4–21.1 ms at 40k in the traced bench passes: the stall grows with
// the history the snapshot carries (DESIGN.md §13).
const DefaultSnapshotEvery = 4096

// engineSnapshot is the on-disk snapshot: everything Open needs to
// resume without replaying the whole journal. History rides along so the
// placement log survives recovery in full.
type engineSnapshot struct {
	Config    Config
	JSeq      int64 // journal records ≤ JSeq are folded into this snapshot
	Algo      string
	InService int
	Driver    *sim.Snapshot
	History   []Outcome
}

// Open builds an engine over the data directory dir, creating it on
// first run. With a snapshot present, the driver is restored from it and
// the journal suffix replayed; otherwise the full journal is replayed
// from genesis. Either way the resulting state is bit-identical to a
// process that executed the whole operation sequence without crashing.
// snapEvery is the number of journal records between automatic
// snapshots (≤0 uses DefaultSnapshotEvery). A directory or journal file
// made here has its name fsync'd into its parent before any record is
// trusted to it (openJournal).
func Open(dir string, cfg Config, snapEvery int) (*Engine, error) {
	began := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if snapEvery <= 0 {
		snapEvery = DefaultSnapshotEvery
	}
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if os.IsNotExist(statErr) { // just created: make its own name durable too
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return nil, err
		}
	}
	e := &Engine{cfg: cfg, dir: dir, seen: map[int]int{}, snapEvery: snapEvery}

	snap, fi, err := readSnapshot(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	if snap != nil && !sameShape(snap.Config, cfg) {
		return nil, fmt.Errorf("svc: snapshot was captured for a different datacenter shape (%+v)", snap.Config.Topology)
	}
	if snap != nil {
		if err := e.restore(snap); err != nil {
			return nil, err
		}
		e.snapBytes, e.snapAt = fi.Size(), fi.ModTime()
	} else {
		if err := e.genesis(); err != nil {
			return nil, err
		}
	}

	j, recs, err := openJournal(filepath.Join(dir, journalFile), cfg)
	if err != nil {
		return nil, err
	}
	e.j = j
	start := int64(0)
	if snap != nil {
		start = snap.JSeq
		if int64(len(recs)) < start {
			j.Close()
			return nil, fmt.Errorf("svc: snapshot covers journal seq %d but only %d records survive", start, len(recs))
		}
	}
	for _, rec := range recs[int(start):] {
		if _, err := e.apply(rec); err != nil {
			j.Close()
			return nil, fmt.Errorf("svc: replaying journal record %d: %w", rec.Seq, err)
		}
	}
	e.sinceSnap = len(recs) - int(start)
	e.recovery, e.replayed = time.Since(began), e.sinceSnap
	return e, nil
}

// datacenter builds the engine's pristine datacenter, the configured racks
// plus the spares, and the named scheduler over it: the one construction
// genesis and restore share.
func (e *Engine) datacenter(algo string) (*sched.State, sched.Scheduler, error) {
	tcfg := e.cfg.Topology
	tcfg.Racks += e.cfg.Spares
	st, err := sched.NewState(tcfg, e.cfg.Network)
	if err != nil {
		return nil, nil, err
	}
	sch, err := sched.New(algo, st)
	if err != nil {
		return nil, nil, err
	}
	return st, sch, nil
}

// genesis builds the pristine datacenter with every spare's boxes failed
// (dark) through the driver's refcounts. Spare darkness is derived from the
// config, not journaled — both the uncrashed and the recovered process
// construct it identically.
func (e *Engine) genesis() error {
	st, sch, err := e.datacenter(e.cfg.Algo)
	if err != nil {
		return err
	}
	e.st = st
	e.d = sim.NewDriver(st, sch)
	e.algo = e.cfg.Algo
	e.inService = e.cfg.Topology.Racks
	for r := e.inService; r < st.Cluster.NumRacks(); r++ {
		if err := e.d.Apply(faults.Event{Tier: faults.RackTier, Rack: r}); err != nil {
			return err
		}
	}
	return nil
}

// restore rebuilds the engine from a snapshot: pristine state, scheduler
// by the snapshot's algorithm, driver via sim.RestoreDriver (which
// re-applies spare darkness from the snapshot's failure set), history
// verbatim, dedup map and decision counters rebuilt from it.
func (e *Engine) restore(snap *engineSnapshot) error {
	st, sch, err := e.datacenter(snap.Algo)
	if err != nil {
		return err
	}
	d, err := sim.RestoreDriver(st, sch, snap.Driver)
	if err != nil {
		return err
	}
	e.st = st
	e.d = d
	e.algo = snap.Algo
	e.inService = snap.InService
	e.history = snap.History
	for i, o := range e.history {
		e.seen[o.VMID] = i
		e.count(o)
	}
	return nil
}

// count books one decision entering the history in the per-tier
// counters: on the live path and in journal replay (apply), and for every
// decision of a restored snapshot — which keeps them exact across a crash.
func (e *Engine) count(out Outcome) {
	if out.Tier < 0 || out.Tier >= workload.NumTiers {
		return
	}
	if out.Accepted {
		e.accepted[out.Tier]++
	} else {
		e.rejected[out.Tier]++
	}
}

// Place journals and applies one placement request. A VM ID already
// decided returns its original outcome (idempotent retry).
func (e *Engine) Place(vm workload.VM) (Outcome, error) {
	if i, ok := e.seen[vm.ID]; ok {
		return e.history[i], nil
	}
	if err := vm.Validate(); err != nil {
		return Outcome{}, fmt.Errorf("svc: invalid VM: %w", err)
	}
	return e.commit(Record{Kind: RecordPlace, VM: vm})
}

// Mutate journals and applies one live fail/heal event at the current
// virtual time. Only box- and rack-scope events over in-service racks
// are accepted.
func (e *Engine) Mutate(ev faults.Event) error {
	if ev.Tier != faults.BoxTier && ev.Tier != faults.RackTier {
		return fmt.Errorf("svc: mutations are box- or rack-scope, got %v", ev.Tier)
	}
	if ev.Rack < 0 || ev.Rack >= e.inService {
		return fmt.Errorf("svc: rack %d outside the %d in-service racks", ev.Rack, e.inService)
	}
	if ev.Tier == faults.BoxTier && (ev.Box < 0 || ev.Box >= e.st.Cluster.Config().BoxesPerRack()) {
		return fmt.Errorf("svc: box %d outside %d boxes per rack", ev.Box, e.st.Cluster.Config().BoxesPerRack())
	}
	ev.T = e.d.Now()
	_, err := e.commit(Record{Kind: RecordMutate, Fault: ev})
	return err
}

// AddRack journals and applies bringing the next spare rack into
// service; it returns the global index of the new rack.
func (e *Engine) AddRack() (int, error) {
	if e.inService >= e.cfg.Topology.Racks+e.cfg.Spares {
		return -1, fmt.Errorf("svc: no spare racks left (%d in service)", e.inService)
	}
	rack := e.inService
	if _, err := e.commit(Record{Kind: RecordAddRack}); err != nil {
		return -1, err
	}
	return rack, nil
}

// Swap journals and applies a scheduler hot-swap. The algorithm must be
// registered; the swap happens at a decision boundary with the topology
// indexes settled (sim.Driver.SetScheduler).
func (e *Engine) Swap(algo string) error {
	if _, err := sched.New(algo, e.st); err != nil {
		return err
	}
	_, err := e.commit(Record{Kind: RecordSwap, Algo: algo})
	return err
}

// commit is the write path shared by all mutating operations: journal
// first (fsync'd), then apply, then maybe snapshot. By then the record is
// durable and applied, so a snapshot that cannot be written costs replay
// time at the next open, not this operation (see SnapshotErr).
func (e *Engine) commit(rec Record) (Outcome, error) {
	if err := e.j.Append(&rec); err != nil {
		return Outcome{}, fmt.Errorf("svc: journal append: %w", err)
	}
	out, err := e.apply(rec)
	if err != nil {
		return Outcome{}, err
	}
	e.sinceSnap++
	if e.sinceSnap >= e.snapEvery {
		_ = e.WriteSnapshot() // kept in snapErr
	}
	return out, nil
}

// apply executes one journaled operation against the driver. It is the
// single interpretation point: the live path and crash replay both run
// through it, which is what makes recovery decision-for-decision
// faithful.
func (e *Engine) apply(rec Record) (Outcome, error) {
	switch rec.Kind {
	case RecordPlace:
		if i, ok := e.seen[rec.VM.ID]; ok {
			return e.history[i], nil // duplicate record: replay is idempotent
		}
		out := Outcome{Seq: rec.Seq, VMID: rec.VM.ID, Tier: rec.VM.Tier, CPUBox: -1, RAMBox: -1, STOBox: -1}
		a, t, err := e.d.Place(rec.VM)
		out.T = t
		if err != nil {
			out.Reason = err.Error()
		} else {
			out.Accepted = true
			out.CPUBox = globalBox(e.st.Cluster, a.CPU)
			out.RAMBox = globalBox(e.st.Cluster, a.RAM)
			out.STOBox = globalBox(e.st.Cluster, a.STO)
			out.InterRack = a.InterRack()
		}
		e.seen[out.VMID] = len(e.history)
		e.history = append(e.history, out)
		e.count(out)
		return out, nil
	case RecordMutate:
		return Outcome{}, e.d.Apply(rec.Fault)
	case RecordAddRack:
		if e.inService >= e.cfg.Topology.Racks+e.cfg.Spares {
			return Outcome{}, fmt.Errorf("svc: add-rack record %d but no spares left", rec.Seq)
		}
		if err := e.d.Apply(faults.Event{T: e.d.Now(), Repair: true, Tier: faults.RackTier, Rack: e.inService}); err != nil {
			return Outcome{}, err
		}
		e.inService++
		return Outcome{}, nil
	case RecordSwap:
		sch, err := sched.New(rec.Algo, e.st)
		if err != nil {
			return Outcome{}, err
		}
		e.d.SetScheduler(sch)
		e.algo = rec.Algo
		return Outcome{}, nil
	default:
		return Outcome{}, fmt.Errorf("svc: unknown journal record kind %d", rec.Kind)
	}
}

// globalBox flattens a placement's box coordinate to the global box
// index (-1 for an empty placement).
func globalBox(cl *topology.Cluster, p topology.Placement) int {
	if p.IsZero() {
		return -1
	}
	return p.Box.Rack()*cl.Config().BoxesPerRack() + p.Box.Index()
}

// WriteSnapshot captures the engine at the current event boundary and
// atomically replaces the snapshot file (replaceFile), synchronously: the
// file is in place when it returns. Journal records already folded in are
// remembered via JSeq, so the next Open replays only the suffix. Succeed
// or fail, the result is kept for SnapshotErr and the cadence starts over;
// only a success changes the size and time Stats reports.
func (e *Engine) WriteSnapshot() (err error) {
	began := stageClock()
	defer func() {
		e.sinceSnap, e.snapErr = 0, err
		e.snapshots.observe(stageClock() - began)
	}()
	ds, err := e.d.Snapshot()
	if err != nil {
		return err
	}
	snap := engineSnapshot{
		Config:    e.cfg,
		JSeq:      e.j.NextSeq() - 1,
		Algo:      e.algo,
		InService: e.inService,
		Driver:    ds,
		History:   e.history,
	}
	var size int64
	err = replaceFile(filepath.Join(e.dir, snapshotFile), func(f *os.File) error {
		if err := gob.NewEncoder(f).Encode(&snap); err != nil {
			return err
		}
		var err error
		size, err = f.Seek(0, io.SeekCurrent) // gob wrote straight to f
		return err
	})
	if err == nil {
		e.snapBytes, e.snapAt = size, time.Now()
	}
	return err
}

// SnapshotErr reports how the most recent snapshot attempt ended. An
// automatic snapshot's failure shows only here and in Stats.
func (e *Engine) SnapshotErr() error { return e.snapErr }

// readSnapshot decodes the snapshot file and returns it with the file's
// size and time; a missing file is not an error (first run, or crash
// before the first snapshot).
func readSnapshot(path string) (*engineSnapshot, os.FileInfo, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	var snap engineSnapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("svc: snapshot undecodable: %w", err)
	}
	return &snap, fi, nil
}

// Close writes a final snapshot and closes the journal. Skipping Close
// (a crash) is always safe — that is the point of the journal — but a
// graceful shutdown bounds the next start's replay to zero records.
func (e *Engine) Close() error {
	return errors.Join(e.WriteSnapshot(), e.j.Close())
}

// Algo returns the live scheduler algorithm name.
func (e *Engine) Algo() string { return e.algo }

// InService returns the number of racks currently serving traffic.
func (e *Engine) InService() int { return e.inService }

// Spares returns the number of dark spare racks remaining.
func (e *Engine) Spares() int { return e.cfg.Topology.Racks + e.cfg.Spares - e.inService }

// Now returns the engine's virtual time.
func (e *Engine) Now() int64 { return e.d.Now() }

// Resident returns the number of VMs currently placed.
func (e *Engine) Resident() int { return e.d.Resident() }

// WritePlacements renders the placement log, one deterministic line per
// decision — what cmd/risasvc's TestDaemonMatchesDriverAcrossKill
// compares between a crashed-and-recovered daemon, an uncrashed one and
// an in-process sim.Driver.
func (e *Engine) WritePlacements(w io.Writer) error {
	for _, o := range e.history {
		if _, err := fmt.Fprintln(w, o.String()); err != nil {
			return err
		}
	}
	return nil
}
