package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sapsim/internal/fleetmetrics"
	"sapsim/internal/scenario"
	"sapsim/internal/trace"
)

// Wire types of the dispatcher protocol. Every request body and response
// is JSON; errors travel as plain-text bodies with a non-2xx status.

// BookRequest asks for the next queued cell. Capacity advertises the
// worker's concurrent-cell capacity (simworker -jobs): the queue books a
// worker up to its capacity in concurrent leases, so bookings are
// weighted by it.
type BookRequest struct {
	Worker   string
	Capacity int `json:",omitempty"`
}

// BookResponse carries a booked cell: everything a stateless worker needs
// to run it from scratch.
type BookResponse struct {
	Job             int
	Key             bookKey
	Attempt         int
	Base            ConfigSpec
	CheckpointEvery int64 // sim.Time (ns): the mid-run snapshot cadence
	// Snapshot, when set, points at the newest journaled engine snapshot
	// for this cell (a previous holder uploaded it before dying): the
	// worker fetches the blob and warm-resumes from Snapshot.At instead of
	// replaying from t=0. Missing or damaged blobs degrade to a cold start.
	Snapshot *SnapshotRecord `json:",omitempty"`
	// Trace and Span propagate trace context: the cell's trace ID and the
	// attempt span the worker parents its own spans under. Workers ship
	// spans back on heartbeats and completion; an empty Trace (an older
	// dispatcher) disables span collection.
	Trace string `json:",omitempty"`
	Span  string `json:",omitempty"`
}

// bookKey mirrors scenario.Key (kept local so the wire format is explicit).
type bookKey struct {
	Scenario string
	Variant  string
	Seed     uint64
}

// ProgressRequest is a worker heartbeat: it renews the job's lease and
// carries the newest snapshot pointer and finished spans, if any. Attempt
// is the booking nonce from BookResponse — a report from a previous
// booking of the same cell is stale even if the worker ID matches.
type ProgressRequest struct {
	Worker  string
	Job     int
	Attempt int
	// Snapshot reports a freshly uploaded engine snapshot (the blob must
	// already be in the store via PUT /artifact/{digest}).
	Snapshot *SnapshotRecord `json:",omitempty"`
	// Spans carries the worker's finished trace spans since the last
	// accepted report (engine phases, snapshot encode/upload).
	Spans []trace.Span `json:",omitempty"`
}

// CompleteRequest reports a finished cell. Every artifact body behind
// Run.Digests must already be uploaded (PUT /artifact/{digest}); the
// dispatcher rejects the completion otherwise.
type CompleteRequest struct {
	Worker  string
	Job     int
	Attempt int
	Run     RunResult
	// Spans is the final drain of the worker's span buffer — journaled
	// before the completion takes effect, while the lease is still held.
	Spans []trace.Span `json:",omitempty"`
	// Profile points at the cell's uploaded engine self-profile blob
	// (PUT /artifact/{digest} first, like any body). It is journaled before
	// the completion takes effect and survives the cell's terminal state.
	Profile *ProfileRecord `json:",omitempty"`
}

// ReleaseRequest hands an abandoned cell back before its lease expires,
// so it re-books immediately instead of costing the fleet a lease
// period of idleness. Reason records why (it survives into the failure
// record if the cell exhausts its attempts).
type ReleaseRequest struct {
	Worker  string
	Job     int
	Attempt int
	Reason  string `json:",omitempty"`
}

// StateResponse is the /state snapshot.
type StateResponse struct {
	Spec    Spec
	Jobs    []JobStatus
	Done    bool
	Drained int
	Total   int
}

// Dispatcher serves a Queue over the wire protocol. It is the simq-style
// queue manager: workers book cells, heartbeat progress, and deliver
// results; observers poll /state; the merged sweep is served at /result
// once drained.
type Dispatcher struct {
	queue *Queue
	srv   *http.Server
	// serveErr delivers the terminal error of a Serve'd server (nil on
	// graceful shutdown); WaitDrained watches it so a dead listener
	// surfaces as an error instead of an eternal poll.
	serveErr chan error
	// Logf, when set, receives one line per queue transition.
	Logf func(format string, args ...any)

	// registry, when set via Instrument, is served at GET /metrics.
	registry     *fleetmetrics.Registry
	encodeErrors *fleetmetrics.Counter
	headHits     *fleetmetrics.Counter
	headMisses   *fleetmetrics.Counter
}

// NewDispatcher wraps a queue.
func NewDispatcher(q *Queue) *Dispatcher {
	return &Dispatcher{queue: q}
}

// Instrument registers the dispatcher's fleet metrics — the queue's (and
// its journal's and artifact store's) instruments plus the wire-level
// counters — and arranges for Handler to serve the registry at
// GET /metrics. Call before Handler/Serve.
func (d *Dispatcher) Instrument(reg *fleetmetrics.Registry) {
	d.queue.Instrument(reg)
	d.registry = reg
	d.encodeErrors = reg.Counter(MetricEncodeErrors,
		"JSON responses that failed to encode or send")
	d.headHits = reg.Counter(MetricArtifactHeads,
		"HEAD /artifact probes", "outcome", "hit")
	d.headMisses = reg.Counter(MetricArtifactHeads,
		"HEAD /artifact probes", "outcome", "miss")
}

// Queue returns the dispatcher's queue.
func (d *Dispatcher) Queue() *Queue { return d.queue }

func (d *Dispatcher) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Handler returns the wire-protocol handler.
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /book", d.handleBook)
	mux.HandleFunc("POST /progress", d.handleProgress)
	mux.HandleFunc("POST /complete", d.handleComplete)
	mux.HandleFunc("POST /release", d.handleRelease)
	mux.HandleFunc("GET /state", d.handleState)
	mux.HandleFunc("GET /result", d.handleResult)
	mux.HandleFunc("HEAD /artifact/{digest}", d.handleArtifactHead)
	mux.HandleFunc("PUT /artifact/{digest}", d.handleArtifactPut)
	mux.HandleFunc("GET /artifact/{digest}", d.handleArtifactGet)
	mux.HandleFunc("GET /bundle", d.handleBundleIndex)
	mux.HandleFunc("GET /bundle/report", d.handleBundleReport)
	mux.HandleFunc("GET /bundle/runs.csv", d.handleBundleRunsCSV)
	mux.HandleFunc("GET /bundle/diff", d.handleBundleDiff)
	mux.HandleFunc("GET /bundle/scenario/{name}", d.handleBundleScenario)
	mux.HandleFunc("GET /bundle/cell/{scenario}/{variant}/{seed}", d.handleBundleCell)
	mux.HandleFunc("GET /bundle/cell/{scenario}/{variant}/{seed}/{id}", d.handleBundleArtifact)
	if d.registry != nil {
		mux.Handle("GET /metrics", d.registry.Handler())
	}
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON encodes a response body. An encode failure after the 200
// header is already on the wire cannot be turned into an error status, but
// it must not vanish either: the worker on the other end sees a truncated
// body and retries, and without the log line and counter the dispatcher
// side of that conversation is invisible.
func (d *Dispatcher) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		d.logf("dispatch: encoding response: %v", err)
		if d.encodeErrors != nil {
			d.encodeErrors.Inc()
		}
	}
}

func (d *Dispatcher) handleBook(w http.ResponseWriter, r *http.Request) {
	var req BookRequest
	if !decodeBody(w, r, &req) {
		return
	}
	job, drained, err := d.queue.Book(req.Worker, req.Capacity)
	switch {
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	case drained:
		http.Error(w, "sweep drained", http.StatusGone)
	case job == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		d.logf("dispatch: job %d (%s/%s seed %d) booked by %s (attempt %d)",
			job.ID, job.Key.Scenario, job.Key.Variant, job.Key.Seed, req.Worker, job.Attempt)
		spec := d.queue.Spec()
		d.writeJSON(w, BookResponse{
			Job:             job.ID,
			Key:             bookKey{Scenario: job.Key.Scenario, Variant: job.Key.Variant, Seed: job.Key.Seed},
			Attempt:         job.Attempt,
			Base:            spec.Base,
			CheckpointEvery: int64(spec.CheckpointEvery),
			Snapshot:        job.LastSnapshot,
			Trace:           CellTraceID(job.Key),
			Span:            attemptSpanID(job.ID, job.Attempt),
		})
	}
}

func (d *Dispatcher) handleProgress(w http.ResponseWriter, r *http.Request) {
	var req ProgressRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := d.queue.Progress(req.Job, req.Worker, req.Attempt); err != nil {
		if errors.Is(err, ErrStale) {
			http.Error(w, err.Error(), http.StatusConflict)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	if req.Snapshot != nil {
		if err := d.queue.RecordSnapshot(req.Job, req.Worker, req.Attempt, *req.Snapshot); err != nil {
			switch {
			case errors.Is(err, ErrStale):
				http.Error(w, err.Error(), http.StatusConflict)
			case errors.Is(err, ErrMissingBlobs):
				http.Error(w, err.Error(), http.StatusPreconditionFailed)
			default:
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		d.logf("dispatch: job %d snapshot at %v from %s", req.Job, req.Snapshot.At, req.Worker)
	}
	if len(req.Spans) > 0 {
		if err := d.queue.RecordSpans(req.Job, req.Worker, req.Attempt, req.Spans); err != nil {
			if errors.Is(err, ErrStale) {
				http.Error(w, err.Error(), http.StatusConflict)
			} else {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
	}
	d.writeJSON(w, struct{ OK bool }{true})
}

func (d *Dispatcher) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The final span drain lands first, while the lease is still held — a
	// completed job accepts no further reports, so spans after Complete
	// would always be stale.
	if len(req.Spans) > 0 {
		if err := d.queue.RecordSpans(req.Job, req.Worker, req.Attempt, req.Spans); err != nil {
			if errors.Is(err, ErrStale) {
				http.Error(w, err.Error(), http.StatusConflict)
			} else {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
	}
	// The profile pointer lands before the completion too — RecordProfile
	// requires the lease. A rejected profile (blob not uploaded, version
	// skew) fails the exchange before the result is durable, so the worker
	// retries the whole completion instead of leaving a done cell with a
	// dangling pointer.
	if req.Profile != nil {
		if err := d.queue.RecordProfile(req.Job, req.Worker, req.Attempt, *req.Profile); err != nil {
			switch {
			case errors.Is(err, ErrStale):
				http.Error(w, err.Error(), http.StatusConflict)
			case errors.Is(err, ErrMissingBlobs):
				http.Error(w, err.Error(), http.StatusPreconditionFailed)
			default:
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
	}
	if err := d.queue.Complete(req.Job, req.Worker, req.Attempt, req.Run); err != nil {
		switch {
		case errors.Is(err, ErrStale):
			http.Error(w, err.Error(), http.StatusConflict)
		case errors.Is(err, ErrMissingBlobs):
			http.Error(w, err.Error(), http.StatusPreconditionFailed)
		default:
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	outcome := "done"
	if req.Run.Err != "" {
		outcome = "failed: " + req.Run.Err
	}
	d.logf("dispatch: job %d completed by %s: %s", req.Job, req.Worker, outcome)
	d.writeJSON(w, struct{ OK bool }{true})
}

func (d *Dispatcher) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := d.queue.Release(req.Job, req.Worker, req.Attempt, req.Reason); err != nil {
		if errors.Is(err, ErrStale) {
			http.Error(w, err.Error(), http.StatusConflict)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	d.logf("dispatch: job %d released by %s", req.Job, req.Worker)
	d.writeJSON(w, struct{ OK bool }{true})
}

func (d *Dispatcher) handleState(w http.ResponseWriter, r *http.Request) {
	jobs := d.queue.Snapshot()
	drained := 0
	for _, j := range jobs {
		if j.State == JobDone.String() || j.State == JobFailed.String() {
			drained++
		}
	}
	d.writeJSON(w, StateResponse{
		Spec: d.queue.Spec(), Jobs: jobs,
		Done: drained == len(jobs), Drained: drained, Total: len(jobs),
	})
}

func (d *Dispatcher) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := d.queue.Merged()
	if err != nil {
		if errors.Is(err, ErrNotDrained) {
			http.Error(w, err.Error(), http.StatusTooEarly)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	d.writeJSON(w, res)
}

// Serve listens on addr and serves the protocol until Shutdown (or ctx
// cancellation). It reports the bound address through the returned
// listener-address string, which matters for addr ":0" in tests and
// examples.
func (d *Dispatcher) Serve(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dispatch: listen %s: %w", addr, err)
	}
	d.srv = &http.Server{Handler: d.Handler()}
	d.serveErr = make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = d.srv.Shutdown(shutdownCtx)
	}()
	go func() {
		err := d.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		if err != nil {
			d.logf("dispatch: serve: %v", err)
		}
		d.serveErr <- err
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops the HTTP server (the queue stays open; Close it
// separately).
func (d *Dispatcher) Shutdown(ctx context.Context) error {
	if d.srv == nil {
		return nil
	}
	return d.srv.Shutdown(ctx)
}

// WaitDrained polls until every cell is terminal, then returns the merged
// sweep. Poll is how often to check (default 200ms).
func (d *Dispatcher) WaitDrained(ctx context.Context, poll time.Duration) (*scenario.SweepResult, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	serveErr := d.serveErr
	for {
		if d.queue.Done() {
			return d.queue.Merged()
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case err := <-serveErr:
			if err != nil {
				return nil, fmt.Errorf("dispatch: server died: %w", err)
			}
			serveErr = nil // graceful shutdown; keep polling the queue
		case <-t.C:
		}
	}
}
