package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"risa/internal/faults"
	"risa/internal/units"
	"risa/internal/workload"
)

// Server is the daemon's HTTP surface: handlers admit operations into
// the queue, one worker goroutine drains it through the Engine, and
// Shutdown drains gracefully. The worker is the engine's only caller,
// which is the whole concurrency story — no engine locks, no torn
// decisions.
type Server struct {
	eng *Engine
	q   *queue

	draining   atomic.Bool
	expired    atomic.Int64
	shed       atomic.Int64
	workerDone chan struct{}

	stages [clockPoints - 1]histogram // POST /place, stage by stage (stageNames)
}

// NewServer wires a server over an open engine. queueCap bounds the
// data lane (≤0 uses 256).
func NewServer(eng *Engine, queueCap int) *Server {
	if queueCap <= 0 {
		queueCap = 256
	}
	return &Server{eng: eng, q: newQueue(queueCap), workerDone: make(chan struct{})}
}

// Start launches the worker loop. Call exactly once.
func (s *Server) Start() { go s.worker() }

// Shutdown drains gracefully: admission stops (new placements get 503),
// queued work is served until ctx expires — whatever is still queued
// then is answered 503 — and the engine closes with a final snapshot.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.q.close()
	select {
	case <-s.workerDone:
	case <-ctx.Done():
		s.q.rejectAll(http.StatusServiceUnavailable)
		<-s.workerDone
	}
	return s.eng.Close()
}

// worker is the single engine writer: it pops queue items — control
// lane first — serves them, and answers.
//
// After each answer it yields the processor. The answer made the waiting
// handler runnable in this P's runnext slot, and the next Append blocks
// this thread in fsync while it still holds the P: without the yield the
// handler waits out the flush until sysmon or an idle P steals it.
func (s *Server) worker() {
	defer close(s.workerDone)
	for it := s.q.pop(); it != nil; it = s.q.pop() {
		it.at[atPickUp] = stageClock()
		it.res <- s.serve(it)
		runtime.Gosched()
	}
}

// serve applies one item: it runs an operator call, or places a VM. A
// placement whose context expired while queued is dropped here with 504,
// before any journal or scheduler work: never half-placed.
func (s *Server) serve(it *item) response {
	if it.op != nil {
		return it.op()
	}
	if it.ctx.Err() != nil {
		s.expired.Add(1)
		return response{status: http.StatusGatewayTimeout}
	}
	// A retry the engine answers from its history journals nothing: its
	// write and sync stages are empty.
	s.eng.j.wrote, s.eng.j.synced = it.at[atPickUp], it.at[atPickUp]
	out, err := s.eng.Place(it.vm)
	it.at[atWritten], it.at[atSynced], it.at[atApplied] = s.eng.j.wrote, s.eng.j.synced, stageClock()
	if err != nil {
		return response{status: http.StatusInternalServerError, err: err}
	}
	return response{status: http.StatusOK, outcome: out}
}

// answer maps an engine verdict onto a response: engine errors on the
// operator endpoints are request problems (bad scope, unknown algorithm,
// no spares), so they answer 400.
func answer(err error, body any) response {
	if err != nil {
		return response{status: http.StatusBadRequest, err: err}
	}
	return response{status: http.StatusOK, body: body}
}

// Stats is the GET /stats payload. Decision counters are kept beside the
// placement history and rebuilt from it on recovery (Engine.count), so
// they survive a crash exactly; shed/expired counters are process-local
// backpressure telemetry.
type Stats struct {
	// Algo is the live scheduler algorithm.
	Algo string `json:"algo"`
	// Now is the engine's virtual time.
	Now int64 `json:"now"`
	// Resident is the number of VMs currently placed.
	Resident int `json:"resident"`
	// InServiceRacks and SpareRacks partition the cluster's racks.
	InServiceRacks int `json:"in_service_racks"`
	SpareRacks     int `json:"spare_racks"`
	// QueueDepth is the data-lane occupancy.
	QueueDepth int `json:"queue_depth"`
	// Draining reports whether shutdown has begun.
	Draining bool `json:"draining"`
	// AcceptedByTier and RejectedByTier count decisions per VM tier.
	AcceptedByTier [workload.NumTiers]int64 `json:"accepted_by_tier"`
	RejectedByTier [workload.NumTiers]int64 `json:"rejected_by_tier"`
	// Shed counts requests evicted by tier-aware backpressure; Expired
	// counts requests dropped at dequeue past their deadline.
	Shed    int64 `json:"shed"`
	Expired int64 `json:"expired"`
	// JournalBytes is where the journal's log ends (header and records);
	// JournalAllocatedBytes is the file's size, which runs ahead of it by
	// the zero room appends overwrite.
	JournalBytes          int64 `json:"journal_bytes"`
	JournalAllocatedBytes int64 `json:"journal_allocated_bytes"`
	// LastSnapshotError is the most recent snapshot attempt's error, if it
	// failed: the journal keeps serving, but reopens replay further back.
	LastSnapshotError string `json:"last_snapshot_error,omitempty"`
	// SnapshotBytes and SnapshotAgeSeconds are the snapshot file's size and
	// the time since it was written, as the engine recorded them when it
	// wrote or opened the file; absent while there is none.
	SnapshotBytes      int64   `json:"snapshot_bytes,omitempty"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
}

// stats assembles the Stats payload (worker goroutine only: it reads
// engine state).
func (s *Server) stats() Stats {
	st := Stats{
		Algo:                  s.eng.Algo(),
		Now:                   s.eng.Now(),
		Resident:              s.eng.Resident(),
		InServiceRacks:        s.eng.InService(),
		SpareRacks:            s.eng.Spares(),
		QueueDepth:            s.q.depth(),
		Draining:              s.draining.Load(),
		AcceptedByTier:        s.eng.accepted,
		RejectedByTier:        s.eng.rejected,
		Shed:                  s.shed.Load(),
		Expired:               s.expired.Load(),
		JournalBytes:          s.eng.j.off,
		JournalAllocatedBytes: s.eng.j.size,
	}
	if err := s.eng.SnapshotErr(); err != nil {
		st.LastSnapshotError = err.Error()
	}
	if s.eng.snapBytes > 0 {
		st.SnapshotBytes, st.SnapshotAgeSeconds = s.eng.snapBytes, time.Since(s.eng.snapAt).Seconds()
	}
	return st
}

// PlaceRequest is the POST /place body. Resource amounts are in native
// units (cores for CPU, GB for RAM and storage); Arrival and Lifetime
// are virtual time (arrival earlier than the daemon's clock is clamped
// forward). DeadlineMS, when positive, bounds the request's real queue
// wait: past it the request is dropped undecided with 504. Zero (or no
// key) means no deadline; a negative one is refused with 400.
type PlaceRequest struct {
	ID         int   `json:"id"`
	Tier       int   `json:"tier"`
	Arrival    int64 `json:"arrival"`
	Lifetime   int64 `json:"lifetime"`
	CPU        int64 `json:"cpu"`
	RAM        int64 `json:"ram"`
	Storage    int64 `json:"storage"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// MutateRequest is the POST /fail and POST /heal body: Scope is "box"
// or "rack"; Box is required only for box scope.
type MutateRequest struct {
	Scope string `json:"scope"`
	Rack  int    `json:"rack"`
	Box   int    `json:"box"`
}

// SwapRequest is the POST /swap body.
type SwapRequest struct {
	Algo string `json:"algo"`
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /place", s.handlePlace)
	mux.HandleFunc("POST /fail", func(w http.ResponseWriter, r *http.Request) { s.handleMutate(w, r, false) })
	mux.HandleFunc("POST /heal", func(w http.ResponseWriter, r *http.Request) { s.handleMutate(w, r, true) })
	mux.HandleFunc("POST /addrack", func(w http.ResponseWriter, r *http.Request) {
		s.write(w, s.control(func() response {
			rack, err := s.eng.AddRack()
			return answer(err, map[string]int{"rack": rack, "in_service_racks": s.eng.InService()})
		}))
	})
	mux.HandleFunc("POST /swap", s.handleSwap)
	mux.HandleFunc("POST /snapshot", func(w http.ResponseWriter, r *http.Request) {
		s.write(w, s.control(func() response { return answer(s.eng.WriteSnapshot(), map[string]bool{"ok": true}) }))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.write(w, s.control(func() response { return response{status: http.StatusOK, body: s.stats()} }))
	})
	mux.HandleFunc("GET /placements", func(w http.ResponseWriter, r *http.Request) {
		s.write(w, s.control(func() response {
			var buf bytes.Buffer
			if err := s.eng.WritePlacements(&buf); err != nil {
				return response{status: http.StatusInternalServerError, err: err}
			}
			return response{status: http.StatusOK, text: buf.Bytes()}
		}))
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// maxBody bounds how much of a request body a handler reads: a
// PlaceRequest, the largest of the three, is under 200 bytes of JSON with
// every number at full width, so 4 KiB refuses no client and no client can
// make the daemon buffer more.
const maxBody = 4 << 10

// readBody reads the request body, at most maxBody bytes of it. On
// failure it has answered — 413 for a body past the limit, 400 for one that
// cannot be read — and returns false. /place encodes its answer into the
// same buffer.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	switch {
	case err != nil:
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return nil, false
	case len(body) > maxBody:
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body longer than %d bytes", maxBody))
		return nil, false
	}
	return body, true
}

// decodeBody decodes the request's JSON body into v through encoding/json,
// reading at most maxBody of it. Like decodePlace it refuses an unknown key
// and bytes after the value: a typo such as "bxo":2 would otherwise act on
// box 0. On failure it has answered — 413 for a body past the limit, 400
// for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		err = fmt.Errorf("data after the object at offset %d", dec.InputOffset())
	}
	writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	return false
}

// maxDeadlineMS is the largest deadline_ms a time.Duration holds
// (≈9.2e12 ms, 292 years). Above it the conversion wraps negative and the
// request would be born expired — answered 504 instead of waiting.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// handlePlace admits one placement request into the data lane, waits for
// its verdict, and books the request's stages once it has answered
// (DESIGN.md §13). Its body is decoded and its answer encoded by hand
// (wire.go).
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	entry := stageClock()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := decodePlace(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	vm := workload.VM{
		ID:       req.ID,
		Arrival:  req.Arrival,
		Lifetime: req.Lifetime,
		Tier:     req.Tier,
		Req:      units.Vec(units.Amount(req.CPU), units.Amount(req.RAM), units.Amount(req.Storage)),
	}
	if err := vm.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > maxDeadlineMS {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("deadline_ms outside [0, %d]", int64(maxDeadlineMS)))
		return
	}
	decoded := stageClock()
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	it := &item{ctx: ctx, tier: vm.Tier, vm: vm, res: make(chan response, 1)}
	it.at[atEntry], it.at[atDecoded] = entry, decoded
	if ok, hint := s.q.enqueueData(it); !ok {
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(hint))
		writeError(w, http.StatusTooManyRequests, "queue full")
		return
	}
	resp := <-it.res
	it.at[atResumed] = stageClock()
	if resp.status == http.StatusTooManyRequests {
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(resp.retryAfter))
		writeError(w, resp.status, "shed by higher-priority load")
		return
	}
	if resp.status != http.StatusOK {
		s.write(w, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendOutcome(body[:0], &resp.outcome))
	it.at[atResponded] = stageClock()
	s.observe(&it.at)
}

// handleMutate serves /fail and /heal through the control lane.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, repair bool) {
	var req MutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ev := faults.Event{Repair: repair, Rack: req.Rack, Box: req.Box}
	switch req.Scope {
	case "box":
		ev.Tier = faults.BoxTier
	case "rack":
		ev.Tier = faults.RackTier
	default:
		writeError(w, http.StatusBadRequest, "scope must be box or rack")
		return
	}
	s.write(w, s.control(func() response { return answer(s.eng.Mutate(ev), map[string]bool{"ok": true}) }))
}

// handleSwap rides the data lane as a FIFO barrier: placements admitted
// before it decide under the old algorithm, later ones under the new.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req SwapRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Algo) > maxAlgoName { // no registered name is longer, and the journal's frame bound counts on it
		writeError(w, http.StatusBadRequest, "unknown algorithm")
		return
	}
	it := &item{tier: barrierTier, res: make(chan response, 1), op: func() response {
		return answer(s.eng.Swap(req.Algo), map[string]string{"algo": req.Algo})
	}}
	if ok, _ := s.q.enqueueData(it); !ok {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.write(w, <-it.res)
}

// control runs op on the worker, ahead of queued placements, and returns
// its response: 503 once shutdown has begun, or when the drain deadline
// passes before the worker reaches it.
func (s *Server) control(op func() response) response {
	it := &item{op: op, res: make(chan response, 1)}
	if !s.q.enqueueControl(it) {
		return response{status: http.StatusServiceUnavailable, err: errors.New("draining")}
	}
	return <-it.res
}

// write renders one response: errors as {"error": ...}, text payloads
// verbatim, everything else as JSON.
func (s *Server) write(w http.ResponseWriter, resp response) {
	if resp.status != http.StatusOK {
		msg := http.StatusText(resp.status)
		if resp.err != nil {
			msg = resp.err.Error()
		}
		writeError(w, resp.status, msg)
		return
	}
	if resp.text != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(resp.text)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp.body)
}

// writeError answers one error as a JSON object.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
