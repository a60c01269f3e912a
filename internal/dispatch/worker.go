package dispatch

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"sapsim"
	"sapsim/internal/artifact"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/trace"
)

// errDrained signals the dispatcher reported the sweep complete (410).
var errDrained = errors.New("dispatch: sweep drained")

// WorkerHooks observe a worker's lifecycle; tests use them to kill a
// worker mid-cell deterministically.
type WorkerHooks struct {
	// OnBook fires after a cell is booked, before it runs.
	OnBook func(job int, key scenario.Key)
	// OnCapture fires when the running cell captures a mid-run engine
	// snapshot, before it is encoded or uploaded (on the session's
	// event-dispatch goroutine, at the spec's simulated-time cadence —
	// guaranteed mid-run, however fast the cell runs on the wall clock).
	OnCapture func(job int, at sim.Time)
	// OnUpload fires per artifact body shipped to the dispatcher's store;
	// deduplicated reports blobs the store already held (skipped via the
	// HEAD probe).
	OnUpload func(job int, id, digest string, deduplicated bool)
	// OnSnapshot fires after a mid-run engine snapshot is accepted by the
	// dispatcher (blob uploaded, pointer journaled).
	OnSnapshot func(job int, rec SnapshotRecord)
	// OnResume fires when a booked cell warm-resumes from a previous
	// holder's snapshot instead of starting at t=0.
	OnResume func(job int, at sim.Time)
}

// Worker is the simd half of the dispatcher split: a stateless loop that
// books cells, runs each through the step-driven sapsim Session, sends
// lease-renewing heartbeats carrying its newest mid-run snapshot pointer,
// uploads every artifact body into the dispatcher's content-addressed
// store (HEAD-deduplicated: blobs the store already holds never travel),
// and completes with the cell's metrics plus digests. Workers hold no
// sweep state — kill one at any point and its cells re-book elsewhere
// after the lease expires.
type Worker struct {
	// Dispatcher is the base URL (http://host:port).
	Dispatcher string
	// ID names the worker in bookings and the journal. Defaults to
	// host:pid.
	ID string
	// HeartbeatEvery is the wall-clock heartbeat cadence (default 2s; the
	// lease must comfortably exceed it).
	HeartbeatEvery time.Duration
	// Poll is the idle re-poll interval when no cell is free (default
	// 500ms). It is also the starting point of the book-failure backoff.
	Poll time.Duration
	// BookBackoffMax caps the exponential backoff between failed /book
	// attempts (default 15s). On transient dispatcher errors the retry
	// delay doubles from Poll up to this cap, with jitter, and resets the
	// moment a book succeeds — so a fleet of workers facing a restarted
	// dispatcher re-books spread out instead of stampeding in lockstep.
	BookBackoffMax time.Duration
	// Concurrency is how many cells run at once (default 1). It is
	// advertised to the queue as the worker's booking capacity, so an
	// N-job worker holds up to N concurrent leases and drains the matrix
	// proportionally faster.
	Concurrency int
	// AbandonBackoff is how long a slot cools down after its cell is
	// abandoned and released (default 5s). The released cell re-books
	// immediately — on another worker; the cool-down keeps a worker with
	// a persistently failing path (say, its uploads rejected) from
	// re-booking its own releases in a tight loop and burning the cell's
	// whole attempt budget in milliseconds.
	AbandonBackoff time.Duration
	// Client overrides the HTTP client.
	Client *http.Client
	// Logf, when set, receives one line per cell transition.
	Logf func(format string, args ...any)
	// Hooks observe the lifecycle (tests).
	Hooks WorkerHooks
	// Artifacts renders the cell's artifact bodies, artifact ID → text
	// (default sapsim.ArtifactSet — all 18 paper artifacts). Digests are
	// taken over these bodies, and the bodies ship to the dispatcher's
	// store.
	Artifacts func(*sapsim.Result) (map[string]string, error)
	// Metrics, when set, receives the worker's fleet metrics (in-flight
	// vs capacity, per-cell wall time, heartbeat RTT, book failures,
	// upload dedup) — simworker serves it on its -metrics listener.
	Metrics *fleetmetrics.Registry

	// m holds the registered instruments (nil when Metrics is unset).
	m *workerMetrics
	// hostname, sleep, and randFloat are test seams: identity-collision
	// and backoff tests substitute deterministic implementations.
	hostname  func() (string, error)
	sleep     func(ctx context.Context, d time.Duration) error
	randFloat func() float64
}

func (w *Worker) fill() {
	if w.hostname == nil {
		w.hostname = os.Hostname
	}
	if w.sleep == nil {
		w.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if w.randFloat == nil {
		w.randFloat = rand.Float64
	}
	if w.ID == "" {
		host, err := w.hostname()
		if err != nil || host == "" {
			// The queue keys leases and attempt nonces by worker ID, so two
			// workers must never share one. A fixed "worker" fallback would
			// collide the moment two hostname-less containers with PID 1
			// joined the same sweep — draw a random suffix instead.
			var b [4]byte
			if _, rerr := crand.Read(b[:]); rerr != nil {
				b = [4]byte{byte(os.Getpid()), byte(os.Getpid() >> 8), byte(os.Getpid() >> 16), byte(os.Getpid() >> 24)}
			}
			host = fmt.Sprintf("anon-%x", b)
		}
		w.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if w.HeartbeatEvery <= 0 {
		w.HeartbeatEvery = 2 * time.Second
	}
	if w.Poll <= 0 {
		w.Poll = 500 * time.Millisecond
	}
	if w.BookBackoffMax <= 0 {
		w.BookBackoffMax = 15 * time.Second
	}
	if w.BookBackoffMax < w.Poll {
		w.BookBackoffMax = w.Poll
	}
	if w.Concurrency <= 0 {
		w.Concurrency = 1
	}
	if w.AbandonBackoff <= 0 {
		w.AbandonBackoff = 5 * time.Second
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if w.Artifacts == nil {
		w.Artifacts = sapsim.ArtifactSet
	}
	if w.Metrics != nil && w.m == nil {
		w.m = newWorkerMetrics(w.Metrics, w.ID, w.Concurrency)
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run books and executes cells until the dispatcher reports the sweep
// drained (returns nil) or ctx is canceled (returns ctx.Err()). All
// bookings happen under one worker ID with Concurrency advertised as
// capacity; up to that many cells run at once. Correctness against
// zombies — a cell whose lease expired and was re-booked, possibly back
// to this very worker — rests on the per-booking Attempt nonce every
// heartbeat and completion carries.
func (w *Worker) Run(ctx context.Context) error {
	w.fill()
	slots := make(chan struct{}, w.Concurrency)
	var wg sync.WaitGroup
	defer wg.Wait()
	backoff := w.Poll
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		booked, err := w.book(ctx, w.ID)
		switch {
		case errors.Is(err, errDrained):
			<-slots
			return nil
		case err != nil:
			// Transient dispatcher unavailability: jittered exponential
			// backoff, doubling from Poll up to BookBackoffMax. The jitter
			// (uniform over [backoff/2, backoff)) decorrelates a fleet whose
			// workers all saw the same dispatcher restart — without it they
			// retry in lockstep and the recovering dispatcher eats a
			// thundering herd at every interval.
			if w.m != nil {
				w.m.bookFails.Inc()
			}
			w.logf("worker %s: book: %v (retry in ~%s)", w.ID, err, backoff)
			<-slots
			delay := backoff/2 + time.Duration(w.randFloat()*float64(backoff/2))
			if err := w.sleep(ctx, delay); err != nil {
				return err
			}
			if backoff *= 2; backoff > w.BookBackoffMax {
				backoff = w.BookBackoffMax
			}
			continue
		case booked == nil:
			// The dispatcher answered (nothing free right now): it is
			// healthy, so poll at the normal cadence and reset the backoff.
			backoff = w.Poll
			if w.m != nil {
				w.m.booksEmpty.Inc()
			}
			<-slots
			if err := w.sleep(ctx, w.Poll); err != nil {
				return err
			}
			continue
		}
		backoff = w.Poll
		if w.m != nil {
			w.m.booksBooked.Inc()
		}
		if w.Hooks.OnBook != nil {
			w.Hooks.OnBook(booked.Job, scenario.Key{Scenario: booked.Key.Scenario,
				Variant: booked.Key.Variant, Seed: booked.Key.Seed})
		}
		wg.Add(1)
		go func(booked *BookResponse) {
			defer wg.Done()
			defer func() { <-slots }()
			if w.m != nil {
				w.m.inflight.Inc()
			}
			start := time.Now()
			err := w.runCell(ctx, w.ID, booked)
			if w.m != nil {
				w.m.inflight.Dec()
				w.m.cellSecs.Observe(time.Since(start).Seconds())
			}
			if err != nil && ctx.Err() == nil {
				// Abandon the cell, handing the lease back so it re-books
				// immediately — otherwise the queue counts it against this
				// worker's capacity until the lease times out, idling a
				// slot. Best-effort: if the lease is already lost (409) or
				// the dispatcher is unreachable, expiry re-books it anyway.
				if w.m != nil {
					w.m.abandoned.Inc()
				}
				w.logf("worker %s: job %d abandoned: %v", w.ID, booked.Job, err)
				var ok struct{ OK bool }
				_, _ = w.post(ctx, "/release",
					ReleaseRequest{Worker: w.ID, Job: booked.Job, Attempt: booked.Attempt,
						Reason: err.Error()}, &ok)
				// Cool the slot down so a worker-local failure doesn't
				// re-book its own release in a tight loop; healthy workers
				// grab the cell meanwhile.
				select {
				case <-ctx.Done():
				case <-time.After(w.AbandonBackoff):
				}
			} else if err == nil && w.m != nil {
				w.m.completed.Inc()
			}
		}(booked)
	}
}

// book asks for the next cell: (nil, nil) means nothing free right now.
func (w *Worker) book(ctx context.Context, id string) (*BookResponse, error) {
	var resp BookResponse
	status, err := w.post(ctx, "/book", BookRequest{Worker: id, Capacity: w.Concurrency}, &resp)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusGone:
		return nil, errDrained
	case status == http.StatusNoContent:
		return nil, nil
	case status != http.StatusOK:
		return nil, fmt.Errorf("dispatch: book: status %d", status)
	}
	return &resp, nil
}

// runCell executes one booked cell through a sapsim Session, heartbeating
// at HeartbeatEvery with the newest uploaded snapshot pointer, ships the
// artifact bodies, and completes it.
func (w *Worker) runCell(ctx context.Context, id string, booked *BookResponse) error {
	key := scenario.Key{Scenario: booked.Key.Scenario, Variant: booked.Key.Variant, Seed: booked.Key.Seed}
	spec := Spec{Base: booked.Base}
	spec.Base.Seed = key.Seed
	cfg, err := spec.CellConfig(key)
	if err != nil {
		// The cell cannot be built on this worker (unknown scenario or
		// variant name — version skew): report it as a failed run.
		return w.complete(ctx, id, booked, RunResult{Err: err.Error()}, nil, nil)
	}

	w.logf("worker %s: job %d (%s/%s seed %d) starting", id, booked.Job,
		key.Scenario, key.Variant, key.Seed)

	// Cell context: canceled when the dispatcher declares the lease lost,
	// so the engine unwinds mid-tick instead of wasting a dead cell.
	cellCtx, cancelCell := context.WithCancelCause(ctx)
	defer cancelCell(nil)

	// pending holds the freshest encoded engine snapshot; the heartbeat
	// loop ships it at its own wall-clock pace, so snapshots coalesce here
	// (newest wins).
	var (
		mu      sync.Mutex
		pending *pendingSnapshot
	)
	// Span collection: the dispatcher handed us trace context (Trace is
	// the cell's trace ID, Span the attempt span it derives from the
	// journal), so engine phases and upload work become spans parented
	// under the attempt, shipped on heartbeats and the completion. An
	// empty Trace (older dispatcher) disables collection entirely. The
	// builder is guarded by mu — the session's event-dispatch goroutine,
	// the heartbeat loop, and this goroutine all touch it.
	var spanb *trace.Builder
	if booked.Trace != "" {
		spanb = trace.NewBuilder(booked.Trace, booked.Span, booked.Span)
	}
	addSpan := func(name string, start, end time.Time, attrs map[string]string) {
		if spanb == nil {
			return
		}
		mu.Lock()
		spanb.Add(name, start, end, attrs)
		mu.Unlock()
	}
	drainSpans := func() []trace.Span {
		if spanb == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		return spanb.Drain()
	}
	requeueSpans := func(batch []trace.Span) {
		if spanb == nil || len(batch) == 0 {
			return
		}
		mu.Lock()
		spanb.Requeue(batch)
		mu.Unlock()
	}
	every := sim.Time(booked.CheckpointEvery)
	observe := sapsim.WithObserverFunc(func(ev sapsim.SessionEvent) {
		switch c := ev.(type) {
		case sapsim.SessionPhase:
			addSpan(c.Name, c.Start, c.End, map[string]string{
				"sim_from": fmt.Sprint(c.FromSim), "sim_to": fmt.Sprint(c.ToSim)})
		case sapsim.SnapshotReady:
			if w.Hooks.OnCapture != nil {
				w.Hooks.OnCapture(booked.Job, c.At)
			}
			// Encode here, on the session's event-dispatch goroutine; the
			// heartbeat loop ships the blob and reports the pointer.
			encStart := time.Now()
			blob, err := sapsim.EncodeSnapshotBytes(c.Snapshot)
			if err != nil {
				w.logf("worker %s: job %d snapshot encode: %v", id, booked.Job, err)
				return
			}
			addSpan("snapshot-encode", encStart, time.Now(), nil)
			mu.Lock()
			pending = &pendingSnapshot{at: c.At, digest: artifact.Digest(blob), blob: blob}
			mu.Unlock()
		}
	})
	buildSession := func(snap *sapsim.Snapshot) (*sapsim.Session, error) {
		opts := []sapsim.Option{sapsim.WithContext(cellCtx), observe, sapsim.WithSnapshotEvery(every)}
		if snap != nil {
			return sapsim.ResumeFromSnapshot(cfg, snap, opts...)
		}
		return sapsim.NewSession(cfg, opts...)
	}

	// Warm resume: a previous holder of this cell uploaded a snapshot
	// before dying. Every failure on this path — fetch, decode, config
	// mismatch at build — degrades to a cold t=0 start from the booked
	// config; a snapshot saves the replayed prefix, it is never a
	// correctness dependency.
	var session *sapsim.Session
	if booked.Snapshot != nil {
		if snap, err := w.fetchSnapshot(cellCtx, booked.Snapshot); err != nil {
			w.logf("worker %s: job %d snapshot %s unusable (%v); cold restart from t=0",
				id, booked.Job, booked.Snapshot.Digest, err)
		} else if s, err := buildSession(snap); err != nil {
			w.logf("worker %s: job %d snapshot session (%v); cold restart from t=0", id, booked.Job, err)
		} else if err := s.Build(); err != nil {
			s.Close()
			w.logf("worker %s: job %d snapshot restore (%v); cold restart from t=0", id, booked.Job, err)
		} else {
			session = s
			w.logf("worker %s: job %d resuming from snapshot at %v", id, booked.Job, snap.At)
			if w.Hooks.OnResume != nil {
				w.Hooks.OnResume(booked.Job, snap.At)
			}
		}
	}
	if session == nil {
		s, err := buildSession(nil)
		if err != nil {
			return w.complete(ctx, id, booked, RunResult{Err: err.Error()}, drainSpans(), nil)
		}
		session = s
	}
	defer session.Close()

	// Heartbeat loop: renew the lease even before the first snapshot,
	// and keep renewing through artifact rendering and upload — the
	// post-simulation work can outlast a lease on slow links, and a cell
	// that expires there re-runs from scratch just to hit the same wall.
	// The loop is stopped right before the completion posts: a heartbeat
	// racing an accepted /complete would see 409 on the done job and
	// cancel the cell context out from under the in-flight response,
	// misreporting a finished cell as abandoned.
	hbDone := make(chan struct{})
	var hbWG sync.WaitGroup
	var hbOnce sync.Once
	stopHeartbeat := func() {
		hbOnce.Do(func() {
			close(hbDone)
			hbWG.Wait()
		})
	}
	defer stopHeartbeat()
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(w.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-cellCtx.Done():
				return
			case <-t.C:
			}
			mu.Lock()
			snap := pending
			mu.Unlock()
			// Ship the newest snapshot blob before reporting its pointer:
			// the dispatcher rejects a pointer whose blob is not in the
			// store. Upload failures are transient — the snapshot stays
			// pending and the next heartbeat retries (or ships a newer one).
			var snapRec *SnapshotRecord
			if snap != nil {
				upStart := time.Now()
				if err := w.uploadSnapshot(cellCtx, snap); err != nil {
					w.logf("worker %s: job %d snapshot upload: %v", id, booked.Job, err)
					snap = nil
				} else {
					addSpan("snapshot-upload", upStart, time.Now(), nil)
					rec := NewSnapshotRecord(snap.at, snap.digest)
					snapRec = &rec
				}
			}
			spanBatch := drainSpans()
			var ok struct{ OK bool }
			hbStart := time.Now()
			status, err := w.post(cellCtx, "/progress",
				ProgressRequest{Worker: id, Job: booked.Job, Attempt: booked.Attempt,
					Snapshot: snapRec, Spans: spanBatch}, &ok)
			if err != nil {
				// Transient; the lease outlives several heartbeats. The spans
				// go back in the buffer — the next report re-ships them.
				requeueSpans(spanBatch)
				continue
			}
			if w.m != nil {
				w.m.heartbeat.Observe(time.Since(hbStart).Seconds())
			}
			if status == http.StatusConflict {
				cancelCell(ErrStale)
				return
			}
			if status != http.StatusOK {
				// Rejected heartbeat (bad request, server error): the lease
				// is not renewing. Log it — if this persists the lease
				// expires, the cell re-books elsewhere, and the next
				// heartbeat's 409 cancels this run.
				requeueSpans(spanBatch)
				w.logf("worker %s: job %d heartbeat rejected: status %d", id, booked.Job, status)
			}
			if status == http.StatusOK && snap != nil {
				// The pointer is journaled; don't re-send it — later
				// heartbeats only renew the lease until the session
				// produces a fresh snapshot, keeping the WAL proportional
				// to state changes, not wall time.
				mu.Lock()
				if pending == snap {
					pending = nil
				}
				mu.Unlock()
				if w.Hooks.OnSnapshot != nil {
					w.Hooks.OnSnapshot(booked.Job, *snapRec)
				}
			}
		}
	}()

	runErr := session.RunToCompletion()

	if runErr != nil {
		if cause := context.Cause(cellCtx); errors.Is(cause, ErrStale) {
			return fmt.Errorf("job %d: %w", booked.Job, ErrStale)
		}
		if cellCtx.Err() != nil {
			return cellCtx.Err()
		}
		// Deterministic run failure: record it, exactly as scenario.Sweep
		// records the cell's error string.
		stopHeartbeat()
		return w.complete(ctx, id, booked, RunResult{Err: runErr.Error()}, drainSpans(), nil)
	}

	res, err := session.Result()
	if err != nil {
		stopHeartbeat()
		return w.complete(ctx, id, booked, RunResult{Err: err.Error()}, drainSpans(), nil)
	}
	run := RunResult{Metrics: scenario.Extract(res)}
	renderStart := time.Now()
	bodies, err := w.Artifacts(res)
	addSpan("artifact-render", renderStart, time.Now(), nil)
	if err != nil {
		run.Err = "fingerprint: " + err.Error()
	} else {
		digests := artifact.DigestSet(bodies)
		run.Digests = digests
		// Upload on the cell context: a heartbeat 409 during the upload
		// window (the lease is renewing through it, but a crashed-and-
		// resumed dispatcher forgets the booking) cancels the remaining
		// transfers instead of shipping bodies toward a doomed complete.
		upStart := time.Now()
		if err := w.upload(cellCtx, booked.Job, bodies, digests); err != nil {
			if cause := context.Cause(cellCtx); errors.Is(cause, ErrStale) {
				return fmt.Errorf("job %d: %w", booked.Job, ErrStale)
			}
			// Otherwise the dispatcher would reject the completion anyway
			// (412); let the lease expire and the cell re-book.
			return fmt.Errorf("job %d: upload: %w", booked.Job, err)
		}
		addSpan("artifact-upload", upStart, time.Now(), nil)
	}
	// Ship the cell's engine self-profile alongside the completion: encode,
	// upload the blob, and attach the pointer. Best-effort — a cell whose
	// profile cannot travel still completes; only its attribution goes
	// missing from analyze -engprof.
	var profRec *ProfileRecord
	if prof, perr := session.Profile(); perr == nil && prof != nil {
		if blob, eerr := sapsim.EncodeProfileBytes(prof); eerr != nil {
			w.logf("worker %s: job %d profile encode: %v", id, booked.Job, eerr)
		} else {
			digest := artifact.Digest(blob)
			upStart := time.Now()
			if uerr := w.uploadBlob(cellCtx, digest, blob); uerr != nil {
				w.logf("worker %s: job %d profile upload: %v (completing without attribution)",
					id, booked.Job, uerr)
			} else {
				addSpan("profile-upload", upStart, time.Now(), nil)
				rec := NewProfileRecord(digest, int64(len(blob)))
				profRec = &rec
				if w.m != nil {
					w.m.observeProfile(prof)
				}
			}
		}
	}
	w.logf("worker %s: job %d finished", id, booked.Job)
	stopHeartbeat()
	if err := w.complete(cellCtx, id, booked, run, drainSpans(), profRec); err != nil {
		if cause := context.Cause(cellCtx); errors.Is(cause, ErrStale) {
			return fmt.Errorf("job %d: %w", booked.Job, ErrStale)
		}
		return err
	}
	return nil
}

// pendingSnapshot is an encoded engine snapshot awaiting upload: the wire
// blob, its content address, and the simulated instant it captures.
type pendingSnapshot struct {
	at     sim.Time
	digest string
	blob   []byte
}

// uploadSnapshot ships one encoded snapshot blob into the dispatcher's
// store, HEAD-deduplicated like artifact bodies (a re-booked cell that
// snapshots at an instant the previous holder already covered produces
// the identical blob).
func (w *Worker) uploadSnapshot(ctx context.Context, s *pendingSnapshot) error {
	return w.uploadBlob(ctx, s.digest, s.blob)
}

// uploadBlob ships one content-addressed blob (snapshot or profile wire
// form) into the dispatcher's store, HEAD-deduplicated.
func (w *Worker) uploadBlob(ctx context.Context, digest string, blob []byte) error {
	status, err := w.do(ctx, http.MethodHead, "/artifact/"+digest, nil)
	if err != nil {
		return err
	}
	if status == http.StatusOK {
		return nil // the store already holds this blob
	}
	status, err = w.do(ctx, http.MethodPut, "/artifact/"+digest, blob)
	if err != nil {
		return err
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return fmt.Errorf("dispatch: blob %s rejected: status %d", digest, status)
	}
	return nil
}

// fetchSnapshot downloads and decodes the snapshot a BookResponse points
// at. Any failure — missing blob, short read, bit rot the decode's digest
// check catches — surfaces as an error the caller degrades to a cold
// start.
func (w *Worker) fetchSnapshot(ctx context.Context, rec *SnapshotRecord) (*sapsim.Snapshot, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	body, status, err := w.fetch(ctx, "/artifact/"+rec.Digest)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("dispatch: snapshot blob fetch: status %d", status)
	}
	if got := artifact.Digest(body); got != rec.Digest {
		return nil, fmt.Errorf("dispatch: snapshot blob hashes to %s, not %s", got, rec.Digest)
	}
	return sapsim.DecodeSnapshotBytes(body)
}

// fetch sends one GET and returns the response body (blob downloads).
func (w *Worker) fetch(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Dispatcher+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := w.Client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// upload ships the cell's artifact bodies into the dispatcher's store,
// deduplicating two ways: per distinct digest within the cell, and via a
// HEAD probe against blobs earlier cells (on any worker) already
// delivered — the static tables identical across every cell of a sweep
// travel once per sweep, not once per cell.
func (w *Worker) upload(ctx context.Context, job int, bodies, digests map[string]string) error {
	ids := make([]string, 0, len(bodies))
	for id := range bodies {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	shipped := map[string]bool{}
	for _, id := range ids {
		digest := digests[id]
		if shipped[digest] {
			continue
		}
		shipped[digest] = true
		status, err := w.do(ctx, http.MethodHead, "/artifact/"+digest, nil)
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			if w.m != nil {
				w.m.upDedup.Inc()
			}
			if w.Hooks.OnUpload != nil {
				w.Hooks.OnUpload(job, id, digest, true)
			}
			continue // the store already holds this blob
		}
		status, err = w.do(ctx, http.MethodPut, "/artifact/"+digest, []byte(bodies[id]))
		if err != nil {
			return err
		}
		if status != http.StatusCreated && status != http.StatusOK {
			return fmt.Errorf("dispatch: artifact %s rejected: status %d", id, status)
		}
		if w.m != nil {
			w.m.upStored.Inc()
		}
		if w.Hooks.OnUpload != nil {
			w.Hooks.OnUpload(job, id, digest, false)
		}
	}
	return nil
}

func (w *Worker) complete(ctx context.Context, id string, booked *BookResponse, run RunResult, spans []trace.Span, prof *ProfileRecord) error {
	var ok struct{ OK bool }
	status, err := w.post(ctx, "/complete",
		CompleteRequest{Worker: id, Job: booked.Job, Attempt: booked.Attempt, Run: run, Spans: spans, Profile: prof}, &ok)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return fmt.Errorf("job %d: %w", booked.Job, ErrStale)
	case http.StatusPreconditionFailed:
		return fmt.Errorf("job %d: %w", booked.Job, ErrMissingBlobs)
	default:
		return fmt.Errorf("dispatch: complete: status %d", status)
	}
}

// post sends one JSON request and decodes a 200 response into out.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Dispatcher+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("dispatch: decoding %s response: %w", path, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, nil
}

// do sends one raw-body request (HEAD probes and blob PUTs) and returns
// the status.
func (w *Worker) do(ctx context.Context, method, path string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.Dispatcher+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := w.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
