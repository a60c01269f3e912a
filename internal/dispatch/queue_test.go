package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sapsim"
	"sapsim/internal/artifact"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

// testSpec is a tiny 2x1x2 = 4-cell matrix.
func testSpec() Spec {
	base := ConfigSpec{
		Seed: 7, Scale: 0.01, VMs: 250, Days: 2,
		SampleEvery: 30 * sim.Minute, VMSampleEvery: 3 * sim.Hour,
		DRS: true, DRSEvery: sim.Hour, RecordVMMetrics: true, ResizeRate: 0.03,
	}
	return Spec{
		Base:      base,
		Scenarios: []string{"baseline", "host-failures"},
		Variants:  []string{"default"},
		Seeds:     []uint64{7, 11},
	}
}

// fakeClock steps time manually.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestQueue(t *testing.T, opts QueueOptions) (*Queue, string) {
	t.Helper()
	dir := t.TempDir()
	q, err := NewQueue(dir, testSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q, dir
}

// putBody stores one artifact body in the queue's store and returns its
// digest — completes of successful cells must have their blobs uploaded.
func putBody(t *testing.T, q *Queue, body string) string {
	t.Helper()
	digest := artifact.Digest([]byte(body))
	if _, err := q.PutArtifact(digest, []byte(body)); err != nil {
		t.Fatal(err)
	}
	return digest
}

func TestQueueBookProgressComplete(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, now: clock.now})

	job, drained, err := q.Book("w1", 1)
	if err != nil || drained || job == nil {
		t.Fatalf("Book = %v, %v, %v", job, drained, err)
	}
	if job.ID != 0 || job.Key.Scenario != "baseline" || job.Key.Seed != 7 {
		t.Fatalf("first booking = %+v, want job 0 baseline/default seed 7 (scenario-major order)", job)
	}
	if job.State != JobBooked || job.Attempt != 1 {
		t.Fatalf("booked job state = %s attempt %d", job.State, job.Attempt)
	}

	// Progress moves booked → running and renews the lease.
	if err := q.Progress(job.ID, "w1", job.Attempt); err != nil {
		t.Fatal(err)
	}
	snap := q.Snapshot()
	if snap[0].State != "running" {
		t.Fatalf("after heartbeat state = %s, want running", snap[0].State)
	}

	// A stranger cannot report on w1's job, and neither can w1 itself
	// under a stale booking nonce.
	if err := q.Progress(job.ID, "w2", job.Attempt); !errors.Is(err, ErrStale) {
		t.Fatalf("stale progress error = %v, want ErrStale", err)
	}
	if err := q.Progress(job.ID, "w1", job.Attempt+1); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong-attempt progress error = %v, want ErrStale", err)
	}
	if err := q.Complete(job.ID, "w2", job.Attempt, RunResult{}); !errors.Is(err, ErrStale) {
		t.Fatalf("stale complete error = %v, want ErrStale", err)
	}

	// A successful completion whose blobs were never uploaded is rejected.
	if err := q.Complete(job.ID, "w1", job.Attempt,
		RunResult{Digests: map[string]string{"fig5": artifact.Digest([]byte("never uploaded"))}}); !errors.Is(err, ErrMissingBlobs) {
		t.Fatalf("complete without blobs = %v, want ErrMissingBlobs", err)
	}

	digest := putBody(t, q, "fig5 body")
	if err := q.Complete(job.ID, "w1", job.Attempt, RunResult{Digests: map[string]string{"fig5": digest}}); err != nil {
		t.Fatal(err)
	}
	if q.Snapshot()[0].State != "done" {
		t.Fatal("completed job not done")
	}
	if q.Done() {
		t.Fatal("queue done with three cells outstanding")
	}
}

// TestReleaseRequeuesImmediately: an abandoning worker hands its lease
// back and the cell re-books at once — no one waits out the lease — while
// the MaxAttempts backstop still catches a cell abandoned on every try.
func TestReleaseRequeuesImmediately(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, MaxAttempts: 2, now: clock.now})

	j, _, err := q.Book("w1", 1)
	if err != nil || j == nil {
		t.Fatalf("Book = %+v, %v", j, err)
	}
	if err := q.Release(j.ID, "w1", j.Attempt, "upload: connection reset"); err != nil {
		t.Fatal(err)
	}
	// No clock advance: the release alone frees the cell.
	j2, _, err := q.Book("w2", 1)
	if err != nil || j2 == nil || j2.ID != j.ID || j2.Attempt != 2 {
		t.Fatalf("post-release booking = %+v, %v; want job %d attempt 2", j2, err, j.ID)
	}
	// A release under a stale nonce (the first booking) is refused.
	if err := q.Release(j.ID, "w1", j.Attempt, ""); !errors.Is(err, ErrStale) {
		t.Fatalf("stale release = %v, want ErrStale", err)
	}
	// Releasing the final allowed attempt fails the cell for good, and
	// the worker's reported cause survives into the failure record.
	if err := q.Release(j2.ID, "w2", j2.Attempt, "upload: 507 insufficient storage"); err != nil {
		t.Fatal(err)
	}
	snap := q.Snapshot()
	if snap[j.ID].State != "failed" || !strings.Contains(snap[j.ID].Err, "abandoned after 2 attempts") ||
		!strings.Contains(snap[j.ID].Err, "507 insufficient storage") {
		t.Fatalf("twice-released cell = %+v, want failed via MaxAttempts backstop with cause", snap[j.ID])
	}
}

// TestCapacityWeightedBooking: bookings are weighted by the worker's
// advertised capacity — a 4-job worker holds four concurrent leases while
// a 1-job worker is held to one, so it drains cells proportionally faster.
func TestCapacityWeightedBooking(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, now: clock.now}) // 4 cells

	small, _, err := q.Book("small", 1)
	if err != nil || small == nil {
		t.Fatalf("small booking = %+v, %v", small, err)
	}
	// At capacity: the small worker gets nothing more while its lease is
	// outstanding, even though cells are free.
	if j, drained, err := q.Book("small", 1); err != nil || drained || j != nil {
		t.Fatalf("over-capacity booking = %+v, drained=%v, %v; want nil", j, drained, err)
	}

	// A 3-capacity worker takes the remaining three cells back to back —
	// three times the small worker's share of the queue.
	var held []*Job
	for i := 0; i < 3; i++ {
		j, _, err := q.Book("big", 3)
		if err != nil || j == nil {
			t.Fatalf("big booking %d = %+v, %v", i, j, err)
		}
		held = append(held, j)
	}
	if j, _, _ := q.Book("big", 3); j != nil {
		t.Fatalf("big worker booked a 4th cell %d past its capacity", j.ID)
	}

	// Completing a cell frees that worker's slot: after finishing one,
	// big may book again — but the matrix is fully leased, so nothing is
	// free for anyone until a lease expires.
	digest := putBody(t, q, "body")
	if err := q.Complete(held[0].ID, "big", held[0].Attempt,
		RunResult{Digests: map[string]string{"fig5": digest}}); err != nil {
		t.Fatal(err)
	}
	if j, drained, err := q.Book("big", 3); err != nil || drained || j != nil {
		t.Fatalf("booking on a fully-leased matrix = %+v, drained=%v, %v; want nil", j, drained, err)
	}

	// Expire the outstanding leases: the freed cells re-book, and the
	// capacity weighting still holds — small gets one, big gets the rest.
	clock.advance(2 * time.Minute)
	if j, _, err := q.Book("small", 1); err != nil || j == nil {
		t.Fatalf("small worker starved after lease expiry: %+v, %v", j, err)
	}
	if j, _, err := q.Book("big", 3); err != nil || j == nil {
		t.Fatalf("big worker got nothing after lease expiry: %+v, %v", j, err)
	}
}

func TestQueueLeaseExpiryRebooks(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, MaxAttempts: 3, now: clock.now})

	job, _, err := q.Book("w1", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Within the lease the job stays w1's: another worker books the NEXT
	// cell, not this one.
	job2, _, err := q.Book("w2", 1)
	if err != nil || job2.ID != 1 {
		t.Fatalf("second booking = %+v, %v; want job 1", job2, err)
	}

	// Past the lease, w1's cell re-queues and re-books to w3.
	clock.advance(2 * time.Minute)
	job3, _, err := q.Book("w3", 1)
	if err != nil || job3.ID != 0 {
		t.Fatalf("post-expiry booking = %+v, %v; want job 0 re-booked", job3, err)
	}
	if job3.Attempt != 2 {
		t.Fatalf("re-booked attempt = %d, want 2", job3.Attempt)
	}
	// The zombie w1 can no longer report.
	if err := q.Progress(job.ID, "w1", job.Attempt); !errors.Is(err, ErrStale) {
		t.Fatalf("zombie progress error = %v, want ErrStale", err)
	}

	// Exhausting MaxAttempts fails the job permanently.
	clock.advance(2 * time.Minute) // expire w3 (attempt 2) and w2's job
	if _, _, err := q.Book("w4", 1); err != nil {
		t.Fatal(err)
	} // job 0 attempt 3
	clock.advance(2 * time.Minute)
	for {
		j, _, err := q.Book("w5", 4)
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			break
		}
		if j.ID == 0 {
			t.Fatalf("job 0 re-booked on attempt %d, past MaxAttempts=3", j.Attempt)
		}
	}
	clock.advance(2 * time.Minute)
	_, _, _ = q.Book("w6", 1) // trigger a reap with everything expired
	found := false
	for _, st := range q.Snapshot() {
		if st.ID == 0 {
			found = true
			if st.State != "failed" || !strings.Contains(st.Err, "abandoned after 3 expired leases") {
				t.Fatalf("job 0 = %+v, want failed after 3 attempts", st)
			}
		}
	}
	if !found {
		t.Fatal("job 0 missing from snapshot")
	}
}

func TestResumeRequeuesInFlight(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	q, err := NewQueue(dir, testSpec(), QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}

	// Complete job 0, leave job 1 booked and job 2 running, job 3 queued.
	j0, _, _ := q.Book("w1", 2)
	done := RunResult{Digests: map[string]string{"fig5": putBody(t, q, "fig5 body of job 0")}}
	done.Metrics.LiveVMs = 42
	if err := q.Complete(j0.ID, "w1", j0.Attempt, done); err != nil {
		t.Fatal(err)
	}
	q.Book("w1", 2)
	j2, _, _ := q.Book("w2", 1)
	if err := q.Progress(j2.ID, "w2", j2.Attempt); err != nil {
		t.Fatal(err)
	}
	q.Close() // crash

	r, err := Resume(dir, QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap := r.Snapshot()
	wantStates := []string{"done", "queued", "queued", "queued"}
	for i, want := range wantStates {
		if snap[i].State != want {
			t.Errorf("job %d resumed as %s, want %s", i, snap[i].State, want)
		}
	}
	// The completed result survived.
	if snap[0].Err != "" {
		t.Errorf("job 0 err = %q", snap[0].Err)
	}
	if !strings.Contains(r.Recovered(), "1 done, 2 requeued") {
		t.Errorf("Recovered() = %q", r.Recovered())
	}
	// Merged refuses while cells are outstanding.
	if _, err := r.Merged(); !errors.Is(err, ErrNotDrained) {
		t.Errorf("Merged on partial queue = %v, want ErrNotDrained", err)
	}
	// Resuming a fresh dir fails cleanly.
	if _, err := Resume(t.TempDir(), QueueOptions{}); !errors.Is(err, errNoJournal) {
		t.Errorf("Resume of empty dir = %v, want errNoJournal", err)
	}
	// NewQueue refuses to clobber an existing sweep.
	if _, err := NewQueue(dir, testSpec(), QueueOptions{}); err == nil {
		t.Error("NewQueue over an existing journal succeeded")
	}
}

// TestResumeTornAndCorruptJournal: a journal with a torn final line and a
// damaged interior line resumes; each damaged record costs at most that
// cell's progress, never the sweep.
func TestResumeTornAndCorruptJournal(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	q, err := NewQueue(dir, testSpec(), QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	digest := putBody(t, q, "torn-test body")
	j0, _, _ := q.Book("w1", 1)
	if err := q.Complete(j0.ID, "w1", j0.Attempt, RunResult{Digests: map[string]string{"fig5": digest}}); err != nil {
		t.Fatal(err)
	}
	j1, _, _ := q.Book("w1", 1)
	if err := q.Complete(j1.ID, "w1", j1.Attempt, RunResult{Digests: map[string]string{"fig5": digest}}); err != nil {
		t.Fatal(err)
	}
	q.Close()

	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	// Damage job 1's result line (an interior record), then append a torn
	// half-written booking.
	for i, line := range lines {
		if strings.Contains(line, `"result"`) && strings.Contains(line, `"job":1`) {
			lines[i] = line[:len(line)/2]
		}
	}
	mangled := strings.Join(lines, "\n") + "\n" + `{"t":"state","job":2,"state":"boo`
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(dir, QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap := r.Snapshot()
	if snap[0].State != "done" {
		t.Errorf("job 0 = %s, want done (undamaged record)", snap[0].State)
	}
	if snap[1].State != "queued" {
		t.Errorf("job 1 = %s, want queued (its result line was damaged)", snap[1].State)
	}
	if snap[2].State != "queued" {
		t.Errorf("job 2 = %s, want queued (torn booking dropped)", snap[2].State)
	}
	if !strings.Contains(r.Recovered(), "torn tail dropped") {
		t.Errorf("Recovered() = %q, want torn tail noted", r.Recovered())
	}
	// The healed journal keeps accepting records: book and complete the
	// damaged cell again, resume once more, and the result sticks.
	jb, _, err := r.Book("w9", 1)
	if err != nil || jb == nil || jb.ID != 1 {
		t.Fatalf("post-recovery booking = %+v, %v; want job 1", jb, err)
	}
	// A digest-less success is refused — the sweep could never bundle.
	if err := r.Complete(jb.ID, "w9", jb.Attempt, RunResult{}); !errors.Is(err, ErrMissingBlobs) {
		t.Fatalf("digest-less complete = %v, want ErrMissingBlobs", err)
	}
	if err := r.Complete(jb.ID, "w9", jb.Attempt,
		RunResult{Digests: map[string]string{"fig5": putBody(t, r, "torn-test body")}}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Resume(dir, QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if st := r2.Snapshot()[1].State; st != "done" {
		t.Errorf("job 1 after re-complete and second resume = %s, want done", st)
	}
}

// TestResumeRejectsOtherJournalFormat: a journal whose header carries the
// previous format version is refused with a typed message rather than
// replayed with records this version no longer understands.
func TestResumeRejectsOtherJournalFormat(t *testing.T) {
	q, dir := newTestQueue(t, QueueOptions{})
	q.Close()

	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, rest, _ := strings.Cut(string(data), "\n")
	var header journalRecord
	if err := json.Unmarshal([]byte(first), &header); err != nil {
		t.Fatal(err)
	}
	header.Version = FormatVersion - 1
	old, err := json.Marshal(header)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(string(old)+"\n"+rest), 0o644); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf("journal format %d, want %d", FormatVersion-1, FormatVersion)
	if r, err := Resume(dir, QueueOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		if r != nil {
			r.Close()
		}
		t.Fatalf("Resume of a format-%d journal = %v, want %q", FormatVersion-1, err, want)
	}
}

// TestJournalSpecRestartReproducesGoldenDigests is the cold-restart
// guarantee: the Spec journaled in the header is all a re-run needs.
// Create a queue for the golden cell, close it, Resume, build the cell
// from the replayed spec alone, and the finished run's artifacts are
// byte-identical to the repo's pinned golden digests (the same file
// golden_test.go enforces).
func TestJournalSpecRestartReproducesGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("one reduced-scale 10-day run")
	}
	golden := readGoldenDigests(t)

	// The golden config as a wire spec: DefaultConfig(42) at the golden
	// harness's reduced scale.
	base := SpecOf(sapsim.DefaultConfig(42))
	base.Scale = 0.02
	base.VMs = 960
	base.Days = 10
	dir := t.TempDir()
	q, err := NewQueue(dir, Spec{Base: base, Scenarios: []string{"baseline"},
		Variants: []string{"default"}, Seeds: []uint64{42}}, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil { // the dispatcher dies here
		t.Fatal(err)
	}

	r, err := Resume(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	spec := r.Spec()
	keys := spec.Keys()
	if len(keys) != 1 {
		t.Fatalf("replayed spec expands to %d cells, want 1", len(keys))
	}
	cfg, err := spec.CellConfig(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := sapsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	digests, err := sapsim.ArtifactDigests(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != len(golden) {
		t.Fatalf("restarted run produced %d artifacts, golden file has %d", len(digests), len(golden))
	}
	for id, want := range golden {
		if digests[id] != want {
			t.Errorf("%s: restarted digest %s != golden %s", id, digests[id], want)
		}
	}
}

// readGoldenDigests loads the repo's pinned artifact digests.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/artifact_digests.txt")
	if err != nil {
		t.Fatalf("reading golden digests: %v", err)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[id] = sum
	}
	return out
}

// TestSpecExpansionMatchesSweepOrder: Spec.Keys and scenario.Sweep agree
// on cell order, so Merged's runs line up with the single-process result.
func TestSpecExpansionMatchesSweepOrder(t *testing.T) {
	spec := testSpec()
	keys := spec.Keys()
	want := []scenario.Key{
		{Scenario: "baseline", Variant: "default", Seed: 7},
		{Scenario: "baseline", Variant: "default", Seed: 11},
		{Scenario: "host-failures", Variant: "default", Seed: 7},
		{Scenario: "host-failures", Variant: "default", Seed: 11},
	}
	if len(keys) != len(want) {
		t.Fatalf("Keys() = %d cells, want %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("keys[%d] = %+v, want %+v", i, keys[i], want[i])
		}
	}
	if err := (Spec{Scenarios: []string{"no-such"}, Variants: []string{"default"}, Seeds: []uint64{1}}).Validate(); err == nil {
		t.Error("unknown scenario name validated")
	}
}
