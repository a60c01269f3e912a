package dispatch

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"sapsim/internal/artifact"
	"sapsim/internal/scenario"
	"sapsim/internal/trace"
)

// Job is one cell of the sweep matrix in the queue. Jobs live in
// scenario-major order (the order scenario.Sweep produces runs in), so
// merging is a straight copy.
type Job struct {
	ID      int
	Key     scenario.Key
	State   JobState
	Worker  string
	Lease   time.Time
	Attempt int

	// Run holds the completion report for done/failed jobs.
	Run *RunResult
	// LastSnapshot points at the newest uploaded engine snapshot; a
	// re-booking of this cell warm-resumes from it.
	LastSnapshot *SnapshotRecord
	// Profile points at the completed cell's engine self-profile blob. It
	// is recorded just before Complete and — unlike LastSnapshot — survives
	// the terminal state: it is what analyze -engprof aggregates.
	Profile *ProfileRecord
}

// Stale is returned by Progress and Complete when the reporting worker no
// longer holds the job's lease (it expired and the job was re-booked, or
// was completed by another worker). The worker should abandon the cell.
var ErrStale = errors.New("dispatch: lease lost")

// ErrMissingBlobs is returned by Complete when a successful cell's digests
// reference artifact bodies the store does not hold — the worker must
// upload every body before completing, or the sweep could drain without
// the artifacts its bundle promises.
var ErrMissingBlobs = errors.New("dispatch: artifact blobs missing from store")

// DefaultLease is how long a booked or running job may go without a
// heartbeat before it is re-queued.
const DefaultLease = 30 * time.Second

// DefaultMaxAttempts bounds how many times a job is re-booked after lease
// expiries before the queue marks it failed — the cell that crashes every
// worker that books it must not wedge the sweep forever.
const DefaultMaxAttempts = 5

// QueueOptions tune a queue.
type QueueOptions struct {
	// Lease is the heartbeat deadline (default DefaultLease).
	Lease time.Duration
	// MaxAttempts bounds bookings per job (default DefaultMaxAttempts).
	MaxAttempts int
	// now overrides the clock in tests.
	now func() time.Time
}

func (o *QueueOptions) fill() {
	if o.Lease <= 0 {
		o.Lease = DefaultLease
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.now == nil {
		o.now = time.Now
	}
}

// Queue is a durable sweep job queue: every state transition is appended
// to an on-disk journal before it takes effect in memory, so a crashed
// dispatcher resumes exactly where the log ends. Queue is safe for
// concurrent use.
type Queue struct {
	mu      sync.Mutex
	spec    Spec
	jobs    []*Job
	journal *journalWriter
	opts    QueueOptions
	dir     string
	// store holds the artifact bodies behind every done cell's digests,
	// content-addressed under dir/cas.
	store *artifact.Store

	// recovered describes what Resume found (torn tail, skipped lines).
	recovered string

	// metrics, when set via Instrument, receives every queue transition.
	metrics *queueMetrics
}

// NewQueue expands the spec into per-cell jobs and creates the sweep
// journal in dir. The directory must not already contain a journal —
// reopen an interrupted sweep with Resume.
func NewQueue(dir string, spec Spec, opts QueueOptions) (*Queue, error) {
	spec.normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts.fill()
	w, err := createJournal(dir, spec, opts.now().UnixMicro())
	if err != nil {
		return nil, err
	}
	store, err := artifact.Open(filepath.Join(dir, artifact.DirName))
	if err != nil {
		w.close()
		return nil, err
	}
	q := &Queue{spec: spec, journal: w, opts: opts, dir: dir, store: store}
	for i, key := range spec.Keys() {
		q.jobs = append(q.jobs, &Job{ID: i, Key: key})
	}
	if len(q.jobs) == 0 {
		w.close()
		return nil, scenario.ErrEmptyMatrix
	}
	return q, nil
}

// Resume rebuilds a queue from dir's journal after a crash or shutdown:
// done and failed cells keep their recorded results, and cells that were
// queued, booked, or running are (re-)queued — their workers cannot reach
// a restarted dispatcher, and every cell is deterministically re-runnable
// from scratch. A torn final line or corrupt interior lines are dropped;
// each costs at most one cell re-run.
//
// Resume also audits the artifact store against the journal: every done
// cell's blobs are re-verified (missing, truncated, and corrupt blobs are
// distinguished and reported), cells whose artifacts cannot be produced
// intact are re-queued, and blobs no finished cell references — uploads
// for cells that never durably completed — are garbage-collected.
func Resume(dir string, opts QueueOptions) (*Queue, error) {
	opts.fill()
	path := filepath.Join(dir, JournalName)
	replay, err := replayJournal(path)
	if err != nil {
		return nil, err
	}
	spec := replay.spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	store, err := artifact.Open(filepath.Join(dir, artifact.DirName))
	if err != nil {
		return nil, err
	}
	q := &Queue{spec: spec, opts: opts, dir: dir, store: store}
	for i, key := range spec.Keys() {
		q.jobs = append(q.jobs, &Job{ID: i, Key: key})
	}
	if len(q.jobs) == 0 {
		return nil, scenario.ErrEmptyMatrix
	}
	// blobSizes is each stored blob's journaled byte length — what lets
	// verification tell a truncated blob from a corrupt one.
	blobSizes := make(map[string]int64)
	for _, rec := range replay.records {
		if rec.T == recArtifact {
			if rec.Digest != "" {
				blobSizes[rec.Digest] = rec.Size
			}
			continue
		}
		if rec.Job < 0 || rec.Job >= len(q.jobs) {
			replay.skipped++
			continue
		}
		j := q.jobs[rec.Job]
		switch rec.T {
		case recState:
			st, err := jobStateFromString(rec.State)
			if err != nil {
				replay.skipped++
				continue
			}
			j.State = st
			j.Worker = rec.Worker
			j.Attempt = rec.Attempt
			if st == JobQueued {
				// A re-queue after a recorded result (the artifact audit
				// path) invalidates that result — and the profile that
				// described the invalidated attempt.
				j.Run = nil
				j.Profile = nil
			}
		case recSnapshot:
			if rec.Snapshot == nil || rec.Snapshot.Validate() != nil {
				replay.skipped++
				continue
			}
			j.LastSnapshot = rec.Snapshot
		case recProfile:
			if rec.Profile == nil || rec.Profile.Validate() != nil {
				replay.skipped++
				continue
			}
			j.Profile = rec.Profile
		case recSpan:
			// Trace spans are observability facts, not queue state; the
			// replay carries no effect (TraceFromJournal reads them).
		case recResult:
			if rec.Run == nil {
				replay.skipped++
				continue
			}
			j.Run = rec.Run
			j.Worker = rec.Worker
			if rec.Run.Err != "" {
				j.State = JobFailed
			} else {
				j.State = JobDone
			}
		}
	}
	// Whatever was in flight when the process died goes back to queued.
	requeued := 0
	for _, j := range q.jobs {
		if j.State == JobBooked || j.State == JobRunning {
			j.State = JobQueued
			j.Worker = ""
			requeued++
		}
	}
	// Audit the store: a done cell is only done if every artifact body it
	// recorded can still be produced intact. Each distinct blob is read
	// and re-hashed exactly once however many cells share it (the static
	// tables are referenced by every cell of the sweep). Bad blobs are
	// removed (so a re-upload is not deduplicated against the damaged
	// file) and the affected cells re-run from scratch — determinism
	// re-produces identical bodies.
	badBlobs := map[string]int{}
	verified := map[string]error{}
	// A heal that cannot remove its damaged blob is worse than no heal:
	// the bad file shadows the re-upload the re-queued cell will attempt,
	// so the failure must be surfaced (Recovered, logs, and the store's
	// remove-failure counter), never swallowed.
	removeFailed := 0
	heal := func(digest string) {
		if rerr := store.Remove(digest); rerr != nil {
			removeFailed++
		}
	}
	verify := func(digest string) error {
		verr, seen := verified[digest]
		if seen {
			return verr
		}
		size, ok := blobSizes[digest]
		if !ok {
			size = -1 // no upload record survived; hash check still runs
		}
		verr = store.Verify(digest, size)
		verified[digest] = verr
		switch {
		case verr == nil:
		case errors.Is(verr, artifact.ErrMissing):
			badBlobs["missing"]++
		case errors.Is(verr, artifact.ErrTruncated):
			badBlobs["truncated"]++
			heal(digest)
		case errors.Is(verr, artifact.ErrCorrupt):
			badBlobs["corrupt"]++
			heal(digest)
		default:
			badBlobs["unreadable"]++
			heal(digest)
		}
		return verr
	}
	auditRequeued := map[int]bool{}
	for _, j := range q.jobs {
		if j.State != JobDone || j.Run == nil {
			continue
		}
		bad := false
		for _, digest := range j.Run.Digests {
			if verify(digest) != nil {
				bad = true
			}
		}
		if bad {
			j.State = JobQueued
			j.Worker = ""
			j.Run = nil
			j.Profile = nil
			// Disk rot is not the cell's fault: the re-run starts with a
			// fresh attempt budget, so a cell that once completed is never
			// pushed over MaxAttempts by blob damage.
			j.Attempt = 0
			auditRequeued[j.ID] = true
		}
	}
	// Audit snapshot blobs the same way — but with the opposite
	// consequence. A damaged artifact blob re-queues its done cell (the
	// result is unusable without its bodies); a damaged snapshot blob
	// merely costs its in-flight cell the warm resume: the pointer is
	// dropped and the cell restarts from t=0, rebuilt from the journaled
	// Spec. Never a failure, never a re-queue.
	badSnaps := map[string]int{}
	for _, j := range q.jobs {
		if j.LastSnapshot == nil {
			continue
		}
		if j.State == JobDone || j.State == JobFailed {
			// Terminal cells never resume; the stale pointer is cleared and
			// the blob falls to GC.
			j.LastSnapshot = nil
			continue
		}
		digest := j.LastSnapshot.Digest
		size, ok := blobSizes[digest]
		if !ok {
			size = -1
		}
		verr := store.Verify(digest, size)
		switch {
		case verr == nil:
			continue
		case errors.Is(verr, artifact.ErrMissing):
			badSnaps["missing"]++
		case errors.Is(verr, artifact.ErrTruncated):
			badSnaps["truncated"]++
			heal(digest)
		case errors.Is(verr, artifact.ErrCorrupt):
			badSnaps["corrupt"]++
			heal(digest)
		default:
			badSnaps["unreadable"]++
			heal(digest)
		}
		j.LastSnapshot = nil
	}
	// Audit profile blobs. A profile is only meaningful on a terminal cell
	// (it is recorded in the same exchange as the completion); a pointer on
	// an in-flight cell is residue of a completion that never durably
	// landed and is dropped. A damaged blob on a done cell drops only the
	// pointer — the attribution for that cell goes missing, the result
	// stays done; profiles are observability, never a correctness
	// dependency.
	badProfs := map[string]int{}
	for _, j := range q.jobs {
		if j.Profile == nil {
			continue
		}
		if j.State != JobDone && j.State != JobFailed {
			j.Profile = nil
			continue
		}
		digest := j.Profile.Digest
		verr := store.Verify(digest, j.Profile.Size)
		switch {
		case verr == nil:
			continue
		case errors.Is(verr, artifact.ErrMissing):
			badProfs["missing"]++
		case errors.Is(verr, artifact.ErrTruncated):
			badProfs["truncated"]++
			heal(digest)
		case errors.Is(verr, artifact.ErrCorrupt):
			badProfs["corrupt"]++
			heal(digest)
		default:
			badProfs["unreadable"]++
			heal(digest)
		}
		j.Profile = nil
	}
	// Garbage-collect orphans: blobs no remaining done cell references.
	// Live snapshot pointers of unfinished cells count as references too —
	// they are what the next booking resumes from — as do terminal cells'
	// profile blobs, which outlive completion by design.
	refs := map[string]int{}
	for _, j := range q.jobs {
		if j.LastSnapshot != nil && j.State != JobDone && j.State != JobFailed {
			refs[j.LastSnapshot.Digest]++
		}
		if j.Profile != nil {
			refs[j.Profile.Digest]++
		}
		if j.State != JobDone || j.Run == nil {
			continue
		}
		for _, digest := range j.Run.Digests {
			refs[digest]++
		}
	}
	// GC failures must not abort the resume — the sweep is still correct
	// with orphans on disk; they are surfaced in Recovered instead.
	orphans, gcErr := store.GC(refs)
	w, err := openJournalForAppend(path)
	if err != nil {
		return nil, err
	}
	q.journal = w
	// Journal the re-queues so a second resume replays to the same state
	// without re-deriving it.
	q.mu.Lock()
	for _, j := range q.jobs {
		if (j.State == JobQueued && j.Attempt > 0) || auditRequeued[j.ID] {
			if err := q.appendStateLocked(j); err != nil {
				q.mu.Unlock()
				w.close()
				return nil, err
			}
		}
	}
	q.mu.Unlock()
	q.recovered = fmt.Sprintf("resumed: %d done, %d requeued", q.countDone(), requeued)
	if replay.torn {
		q.recovered += ", torn tail dropped"
	}
	if replay.skipped > 0 {
		q.recovered += fmt.Sprintf(", %d corrupt lines skipped", replay.skipped)
	}
	for _, kind := range []string{"missing", "truncated", "corrupt", "unreadable"} {
		if n := badBlobs[kind]; n > 0 {
			q.recovered += fmt.Sprintf(", %d %s blobs", n, kind)
		}
	}
	for _, kind := range []string{"missing", "truncated", "corrupt", "unreadable"} {
		if n := badSnaps[kind]; n > 0 {
			q.recovered += fmt.Sprintf(", %d %s snapshot blobs dropped (cells restart from t=0)", n, kind)
		}
	}
	for _, kind := range []string{"missing", "truncated", "corrupt", "unreadable"} {
		if n := badProfs[kind]; n > 0 {
			q.recovered += fmt.Sprintf(", %d %s profile blobs dropped (cells stay done)", n, kind)
		}
	}
	if removeFailed > 0 {
		q.recovered += fmt.Sprintf(", %d damaged blobs could NOT be removed (they shadow re-uploads)", removeFailed)
	}
	if len(auditRequeued) > 0 {
		q.recovered += fmt.Sprintf(", %d cells requeued for artifact re-upload", len(auditRequeued))
	}
	if orphans > 0 {
		q.recovered += fmt.Sprintf(", %d orphan blobs collected", orphans)
	}
	if gcErr != nil {
		q.recovered += fmt.Sprintf(", GC incomplete: %v", gcErr)
	}
	return q, nil
}

// Spec returns the sweep's matrix spec.
func (q *Queue) Spec() Spec { return q.spec }

// Dir returns the sweep directory holding the journal.
func (q *Queue) Dir() string { return q.dir }

// Recovered describes what Resume found (empty for a fresh queue).
func (q *Queue) Recovered() string { return q.recovered }

// Close flushes and closes the journal.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.journal == nil {
		return nil
	}
	err := q.journal.close()
	q.journal = nil
	return err
}

func (q *Queue) appendStateLocked(j *Job) error {
	rec := journalRecord{T: recState, TS: q.opts.now().UnixMicro(),
		Job: j.ID, State: j.State.String(),
		Worker: j.Worker, Attempt: j.Attempt}
	if !j.Lease.IsZero() && (j.State == JobBooked || j.State == JobRunning) {
		rec.Lease = leaseStamp(j.Lease)
	}
	if q.journal == nil {
		return errors.New("dispatch: queue closed")
	}
	return q.journal.append(rec)
}

// reapLocked re-queues booked/running jobs whose lease expired, failing
// jobs that exhausted their attempts. Called with the mutex held from
// every public entry point, so no background reaper is needed: a waiting
// worker's next /book observes expiries immediately. A transition only
// takes effect in memory once its journal record lands (the WAL contract
// Book follows); on an append failure the job keeps its expired lease and
// the reap retries on the next entry point.
func (q *Queue) reapLocked(now time.Time) {
	for _, j := range q.jobs {
		if (j.State == JobBooked || j.State == JobRunning) && now.After(j.Lease) {
			prevState, prevWorker := j.State, j.Worker
			if j.Attempt >= q.opts.MaxAttempts {
				j.State = JobFailed
				j.Run = &RunResult{Err: fmt.Sprintf(
					"dispatch: abandoned after %d expired leases (last worker %s)", j.Attempt, j.Worker)}
				if err := q.appendResultLocked(j); err != nil {
					j.State, j.Run = prevState, nil
					continue
				}
				snap := j.LastSnapshot
				j.LastSnapshot = nil
				q.dropSnapshotBlobLocked(snap)
				if q.metrics != nil {
					q.metrics.attemptsExhaust.Inc()
					q.metrics.jobAttempts.Observe(float64(j.Attempt))
				}
				continue
			}
			j.State = JobQueued
			j.Worker = ""
			if err := q.appendStateLocked(j); err != nil {
				j.State, j.Worker = prevState, prevWorker
				continue
			}
			if q.metrics != nil {
				q.metrics.leaseExpiries.Inc()
			}
		}
	}
}

func (q *Queue) appendResultLocked(j *Job) error {
	if q.journal == nil {
		return errors.New("dispatch: queue closed")
	}
	return q.journal.appendDurable(journalRecord{T: recResult, TS: q.opts.now().UnixMicro(),
		Job: j.ID, Worker: j.Worker, Run: j.Run})
}

// Book leases the next queued job to the worker. Capacity is the worker's
// advertised concurrent-cell capacity (simworker -jobs; <=0 means 1): the
// queue books each worker up to its capacity in concurrent leases, so a
// 4-job worker holds four cells at once and drains the matrix
// proportionally faster than a 1-job neighbor. A worker already holding
// its capacity gets nothing until a lease frees. The second return is
// true when the sweep is drained (every job done or failed); when false
// with a nil job, everything unfinished is currently leased and the
// caller should poll again.
func (q *Queue) Book(worker string, capacity int) (*Job, bool, error) {
	if worker == "" {
		return nil, false, errors.New("dispatch: empty worker id")
	}
	if capacity <= 0 {
		capacity = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.now()
	q.reapLocked(now)
	holds := 0
	for _, j := range q.jobs {
		if (j.State == JobBooked || j.State == JobRunning) && j.Worker == worker {
			holds++
		}
	}
	drained := true
	for _, j := range q.jobs {
		switch j.State {
		case JobDone, JobFailed:
			continue
		case JobQueued:
			if holds >= capacity {
				// Everything unfinished that this worker could take would
				// push it past its advertised capacity.
				return nil, false, nil
			}
			j.State = JobBooked
			j.Worker = worker
			j.Attempt++
			j.Lease = now.Add(q.opts.Lease)
			if err := q.appendStateLocked(j); err != nil {
				j.State = JobQueued
				j.Worker = ""
				j.Attempt--
				return nil, false, err
			}
			if q.metrics != nil {
				q.metrics.books.Inc()
				if j.Attempt > 1 {
					q.metrics.rebooks.Inc()
				}
			}
			cp := *j
			return &cp, false, nil
		default:
			drained = false
		}
	}
	return nil, drained, nil
}

// Progress records a worker heartbeat for a booked/running job: the lease
// renews, and a booked job's first heartbeat journals it running. Attempt
// is the booking nonce from BookResponse; it is what distinguishes the
// current holder from a zombie whose expired cell was re-booked to the
// same worker ID. Returns Stale when the worker no longer holds the job.
func (q *Queue) Progress(jobID int, worker string, attempt int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.now()
	q.reapLocked(now)
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	j.Lease = now.Add(q.opts.Lease)
	if q.metrics != nil {
		q.metrics.progress.Inc()
	}
	if j.State == JobBooked {
		j.State = JobRunning
		return q.appendStateLocked(j)
	}
	return nil
}

// RecordSnapshot journals a worker's mid-run snapshot pointer for a held
// cell: the encoded snapshot blob must already be in the store (uploaded
// via PUT /artifact/{digest}, deduplicated like any body) — a pointer to
// a blob the store does not hold is rejected with ErrMissingBlobs, since
// a dangling pointer would send every re-booking through a failed fetch.
// The newest record wins; it is what /book hands the next holder to
// warm-resume from. Plain append, no fsync: losing the record costs a
// cold restart, not a cell. Returns Stale when the worker no longer holds
// the job.
func (q *Queue) RecordSnapshot(jobID int, worker string, attempt int, rec SnapshotRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	if !q.store.Has(rec.Digest) {
		return fmt.Errorf("%w: job %d: snapshot blob %s not uploaded",
			ErrMissingBlobs, jobID, rec.Digest)
	}
	if q.journal == nil {
		return errors.New("dispatch: queue closed")
	}
	if err := q.journal.append(journalRecord{T: recSnapshot, TS: q.opts.now().UnixMicro(),
		Job: j.ID, Worker: worker, Snapshot: &rec}); err != nil {
		return err
	}
	prev := j.LastSnapshot
	j.LastSnapshot = &rec
	// The superseded snapshot can never be resumed from again (the newest
	// record wins), so reclaim its blob now instead of accreting one per
	// cadence boundary until the next Resume's GC.
	q.dropSnapshotBlobLocked(prev)
	return nil
}

// RecordProfile journals a completed cell's engine self-profile pointer.
// The encoded profile blob must already be in the store (uploaded via
// PUT /artifact/{digest}); a dangling pointer is rejected with
// ErrMissingBlobs. It is called in the completion exchange, while the
// lease is still held — the pointer then survives the cell's terminal
// state, unlike a snapshot's, because the profile is the sweep's post-hoc
// attribution record. Plain append, no fsync: losing it costs one cell's
// attribution, never its result. Returns Stale when the worker no longer
// holds the job.
func (q *Queue) RecordProfile(jobID int, worker string, attempt int, rec ProfileRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	if !q.store.Has(rec.Digest) {
		return fmt.Errorf("%w: job %d: profile blob %s not uploaded",
			ErrMissingBlobs, jobID, rec.Digest)
	}
	if q.journal == nil {
		return errors.New("dispatch: queue closed")
	}
	if err := q.journal.append(journalRecord{T: recProfile, TS: q.opts.now().UnixMicro(),
		Job: j.ID, Worker: worker, Profile: &rec}); err != nil {
		return err
	}
	prev := j.Profile
	j.Profile = &rec
	// A superseded profile (an earlier attempt's completion that never
	// durably landed) is unreachable; reclaim its blob like a superseded
	// snapshot's.
	q.dropProfileBlobLocked(prev)
	return nil
}

// dropProfileBlobLocked reclaims a profile blob no cell's pointer reaches
// anymore. Best-effort, like dropSnapshotBlobLocked.
func (q *Queue) dropProfileBlobLocked(prof *ProfileRecord) {
	if prof == nil {
		return
	}
	for _, j := range q.jobs {
		if j.Profile != nil && j.Profile.Digest == prof.Digest {
			return
		}
	}
	_ = q.store.Remove(prof.Digest)
}

// EachProfile calls fn for every terminal cell that carries a profile
// pointer, in scenario-major order — the accessor sweep -resume uses to
// export per-cell profiles from a drained queue. fn runs outside the
// queue lock (the store is safe for concurrent reads).
func (q *Queue) EachProfile(fn func(key scenario.Key, rec ProfileRecord) error) error {
	type entry struct {
		key scenario.Key
		rec ProfileRecord
	}
	q.mu.Lock()
	var entries []entry
	for _, j := range q.jobs {
		if j.Profile != nil && (j.State == JobDone || j.State == JobFailed) {
			entries = append(entries, entry{key: j.Key, rec: *j.Profile})
		}
	}
	q.mu.Unlock()
	for _, e := range entries {
		if err := fn(e.key, e.rec); err != nil {
			return err
		}
	}
	return nil
}

// maxSpansPerReport bounds one heartbeat's or completion's span batch — a
// runaway worker must not be able to grow the WAL without bound.
const maxSpansPerReport = 512

// RecordSpans journals a batch of worker-side trace spans for a held cell.
// Spans are pure observability: plain appends, no fsync, no queue-state
// effect — losing them costs trace detail, never correctness. Returns
// Stale when the worker no longer holds the job, so a zombie's spans from
// a superseded attempt never pollute the trace of the current one.
func (q *Queue) RecordSpans(jobID int, worker string, attempt int, spans []trace.Span) error {
	if len(spans) == 0 {
		return nil
	}
	if len(spans) > maxSpansPerReport {
		return fmt.Errorf("dispatch: job %d: %d spans in one report (max %d)",
			jobID, len(spans), maxSpansPerReport)
	}
	for _, s := range spans {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	if q.journal == nil {
		return errors.New("dispatch: queue closed")
	}
	ts := q.opts.now().UnixMicro()
	for i := range spans {
		s := spans[i]
		if err := q.journal.append(journalRecord{T: recSpan, TS: ts, Job: j.ID,
			Worker: worker, Attempt: attempt, Span: &s}); err != nil {
			return err
		}
	}
	return nil
}

// dropSnapshotBlobLocked reclaims a snapshot blob no longer reachable
// from any cell's live pointer. Best-effort: a failed removal is
// re-collected by the next Resume's GC, and a blob another cell's pointer
// still shares is left alone.
func (q *Queue) dropSnapshotBlobLocked(snap *SnapshotRecord) {
	if snap == nil {
		return
	}
	for _, j := range q.jobs {
		if j.LastSnapshot != nil && j.LastSnapshot.Digest == snap.Digest {
			return
		}
	}
	_ = q.store.Remove(snap.Digest)
}

// Complete records a worker's finished cell (durably, with an fsync).
// A successful cell must have every artifact body behind its digests in
// the store already — a complete whose blobs are missing is rejected with
// ErrMissingBlobs, because a sweep that drains without its bodies cannot
// produce the bundle it promises. Returns Stale when the worker no longer
// holds the job.
func (q *Queue) Complete(jobID int, worker string, attempt int, run RunResult) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	if run.Err == "" {
		if len(run.Digests) == 0 {
			// A digest-less success would drain the sweep permanently
			// unable to produce its bundle.
			return fmt.Errorf("%w: job %d: completion carries no artifact digests",
				ErrMissingBlobs, jobID)
		}
		missing := 0
		for _, digest := range run.Digests {
			if !q.store.Has(digest) {
				missing++
			}
		}
		if missing > 0 {
			return fmt.Errorf("%w: job %d: %d of %d bodies not uploaded",
				ErrMissingBlobs, jobID, missing, len(run.Digests))
		}
	}
	j.Run = &run
	if run.Err != "" {
		j.State = JobFailed
	} else {
		j.State = JobDone
	}
	if err := q.appendResultLocked(j); err != nil {
		return err
	}
	// A terminal cell never resumes: reclaim its snapshot blob so a
	// drained store holds exactly the artifact bodies the sweep promises.
	prev := j.LastSnapshot
	j.LastSnapshot = nil
	q.dropSnapshotBlobLocked(prev)
	if q.metrics != nil {
		if run.Err != "" {
			q.metrics.completesFailed.Inc()
		} else {
			q.metrics.completesDone.Inc()
		}
		q.metrics.jobAttempts.Observe(float64(j.Attempt))
	}
	return nil
}

// Release returns a held cell to the queue before its lease expires — a
// worker abandoning a cell (upload rejected, transient dispatcher error)
// calls it so the cell re-books immediately instead of idling out the
// lease. The booking attempt is spent either way, and reason is
// preserved in the failure record if the cell exhausts its attempts.
// Returns Stale when the caller no longer holds the cell, which an
// abandoning worker ignores.
func (q *Queue) Release(jobID int, worker string, attempt int, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	prevState, prevWorker := j.State, j.Worker
	if j.Attempt >= q.opts.MaxAttempts {
		// The same backstop lease expiry applies: a cell abandoned on
		// every attempt must not ping-pong through the queue forever.
		msg := fmt.Sprintf("dispatch: abandoned after %d attempts (last worker %s)",
			j.Attempt, prevWorker)
		if reason != "" {
			msg += ": " + reason
		}
		j.State = JobFailed
		j.Run = &RunResult{Err: msg}
		if err := q.appendResultLocked(j); err != nil {
			j.State, j.Run = prevState, nil
			return err
		}
		snap := j.LastSnapshot
		j.LastSnapshot = nil
		q.dropSnapshotBlobLocked(snap)
		if q.metrics != nil {
			q.metrics.attemptsExhaust.Inc()
			q.metrics.jobAttempts.Observe(float64(j.Attempt))
		}
		return nil
	}
	j.State = JobQueued
	j.Worker = ""
	if err := q.appendStateLocked(j); err != nil {
		j.State, j.Worker = prevState, prevWorker
		return err
	}
	if q.metrics != nil {
		q.metrics.releases.Inc()
	}
	return nil
}

// PutArtifact stores one artifact body under its digest (verifying the
// content hashes to it) and journals the upload with its size — the
// record Resume later verifies the blob against. Re-putting a digest the
// store already holds is the dedup no-op — nothing is journaled twice —
// and the bool reports whether a new blob was written.
func (q *Queue) PutArtifact(digest string, body []byte) (bool, error) {
	stored, err := q.store.Put(digest, body)
	if err != nil || !stored {
		return false, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.journal == nil {
		return true, errors.New("dispatch: queue closed")
	}
	return true, q.journal.append(journalRecord{T: recArtifact, TS: q.opts.now().UnixMicro(),
		Digest: digest, Size: int64(len(body))})
}

// Store exposes the queue's content-addressed artifact store (bundle
// serving and materialization read through it).
func (q *Queue) Store() *artifact.Store { return q.store }

// CellRun returns a copy of one cell's recorded result; ok is false while
// the cell has none (still queued or in flight).
func (q *Queue) CellRun(jobID int) (scenario.Run, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if jobID < 0 || jobID >= len(q.jobs) {
		return scenario.Run{}, false
	}
	j := q.jobs[jobID]
	if j.Run == nil {
		return scenario.Run{}, false
	}
	return scenario.Run{Key: j.Key, Metrics: j.Run.Metrics,
		Digests: j.Run.Digests, Err: j.Run.Err}, true
}

func (q *Queue) heldLocked(jobID int, worker string, attempt int) (*Job, error) {
	if jobID < 0 || jobID >= len(q.jobs) {
		return nil, fmt.Errorf("dispatch: unknown job %d", jobID)
	}
	j := q.jobs[jobID]
	if (j.State != JobBooked && j.State != JobRunning) || j.Worker != worker || j.Attempt != attempt {
		return nil, fmt.Errorf("%w: job %d is %s (held by %q, attempt %d)",
			ErrStale, jobID, j.State, j.Worker, j.Attempt)
	}
	return j, nil
}

// Done reports whether every job reached a terminal state.
func (q *Queue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	return q.countDone() == len(q.jobs)
}

// countDone counts terminal jobs; callers hold the mutex or own the queue
// exclusively (Resume).
func (q *Queue) countDone() int {
	n := 0
	for _, j := range q.jobs {
		if j.State == JobDone || j.State == JobFailed {
			n++
		}
	}
	return n
}

// Snapshot reports every job's current status in scenario-major order.
func (q *Queue) Snapshot() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	out := make([]JobStatus, len(q.jobs))
	for i, j := range q.jobs {
		st := JobStatus{ID: j.ID, Key: j.Key, State: j.State.String(),
			Worker: j.Worker, Attempt: j.Attempt, Snapshot: j.LastSnapshot,
			Profile: j.Profile}
		if j.Run != nil {
			st.Err = j.Run.Err
		}
		out[i] = st
	}
	return out
}

// ErrNotDrained is returned by Merged while cells are still outstanding.
var ErrNotDrained = errors.New("dispatch: sweep not drained")

// Merged assembles the finished sweep in scenario-major order — the exact
// SweepResult (metrics, digests, error strings) a single-process
// scenario.Sweep of the same spec produces.
func (q *Queue) Merged() (*scenario.SweepResult, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	runs := make([]scenario.Run, len(q.jobs))
	for i, j := range q.jobs {
		if j.Run == nil {
			return nil, fmt.Errorf("%w: job %d (%s/%s seed %d) is %s",
				ErrNotDrained, j.ID, j.Key.Scenario, j.Key.Variant, j.Key.Seed, j.State)
		}
		runs[i] = scenario.Run{Key: j.Key, Metrics: j.Run.Metrics,
			Digests: j.Run.Digests, Err: j.Run.Err}
	}
	return &scenario.SweepResult{Runs: runs}, nil
}
