// Wall-clock execution telemetry for the parallel runner: which worker
// ran which job when, how long each job took, and how well the pool was
// occupied. This is observability of the *execution*, not the model —
// it never feeds a simulation result, so recording it cannot perturb
// the bit-for-bit determinism contract of Map.

package runner

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rsin/internal/obs"
)

// JobTiming records one job's execution window on a worker, as offsets
// from the owning Telemetry's epoch (its construction time).
type JobTiming struct {
	Job    int
	Worker int
	Start  time.Duration
	End    time.Duration
}

// Duration returns the job's wall-clock execution time.
func (j JobTiming) Duration() time.Duration { return j.End - j.Start }

// Telemetry collects per-job wall-clock timings across one or more Map
// executions (attach it via Options.Telemetry). Safe for concurrent
// use; a single Telemetry may be shared by sequential sweeps to get one
// combined timeline.
type Telemetry struct {
	mu    sync.Mutex
	epoch time.Time
	jobs  []JobTiming
}

// NewTelemetry returns a collector whose epoch is now.
func NewTelemetry() *Telemetry { return &Telemetry{epoch: time.Now()} }

func (t *Telemetry) now() time.Duration { return time.Since(t.epoch) }

func (t *Telemetry) observe(job, worker int, start, end time.Duration) {
	t.mu.Lock()
	t.jobs = append(t.jobs, JobTiming{Job: job, Worker: worker, Start: start, End: end})
	t.mu.Unlock()
}

// Jobs returns the recorded timings sorted by job index (jobs complete
// in scheduling order, which is not deterministic; the sort is).
func (t *Telemetry) Jobs() []JobTiming {
	t.mu.Lock()
	out := append([]JobTiming(nil), t.jobs...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// Summary condenses the recorded timeline.
type Summary struct {
	Jobs      int           // jobs recorded
	Workers   int           // distinct workers observed
	Wall      time.Duration // end of the last job (from the epoch)
	Busy      time.Duration // total job execution time across workers
	Occupancy float64       // Busy / (Wall·Workers): pool utilization in [0,1]
}

// String renders the summary as one human-readable line.
func (s Summary) String() string {
	return fmt.Sprintf("%d jobs on %d workers in %s (busy %s, occupancy %.0f%%)",
		s.Jobs, s.Workers, s.Wall.Round(time.Millisecond),
		s.Busy.Round(time.Millisecond), 100*s.Occupancy)
}

// Summary computes the current summary.
func (t *Telemetry) Summary() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s Summary
	s.Jobs = len(t.jobs)
	workers := map[int]bool{}
	for _, j := range t.jobs {
		workers[j.Worker] = true
		s.Busy += j.End - j.Start
		if j.End > s.Wall {
			s.Wall = j.End
		}
	}
	s.Workers = len(workers)
	if s.Wall > 0 && s.Workers > 0 {
		s.Occupancy = float64(s.Busy) / (float64(s.Wall) * float64(s.Workers))
	}
	return s
}

// Epoch returns the collector's construction time, the zero point of
// every recorded offset.
func (t *Telemetry) Epoch() time.Time { return t.epoch }

// TraceEvents renders the recorded timeline as Chrome trace events
// (wall-clock microseconds, one thread per worker) under process pid
// named name, with every timestamp shifted by offset. Several
// telemetries (e.g. one per sweep) merge into one trace by passing
// distinct pids and each epoch's offset from a common zero.
func (t *Telemetry) TraceEvents(pid int, name string, offset time.Duration) []obs.TraceEvent {
	jobs := t.Jobs()
	workers := map[int]bool{}
	for _, j := range jobs {
		workers[j.Worker] = true
	}
	wids := make([]int, 0, len(workers))
	for id := range workers {
		wids = append(wids, id)
	}
	sort.Ints(wids)
	events := make([]obs.TraceEvent, 0, len(jobs)+1+len(wids))
	events = append(events, obs.TraceEvent{
		Name: "process_name", Ph: 'M', Pid: pid,
		Args: []obs.Arg{{Key: "name", Val: name}},
	})
	for _, id := range wids {
		events = append(events, obs.TraceEvent{
			Name: "thread_name", Ph: 'M', Pid: pid, Tid: id,
			Args: []obs.Arg{{Key: "name", Val: fmt.Sprintf("worker %d", id)}},
		})
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, j := range jobs {
		events = append(events, obs.TraceEvent{
			Name: fmt.Sprintf("job %d", j.Job), Cat: "runner", Ph: 'X',
			Ts:  us(j.Start + offset),
			Dur: us(j.Duration()),
			Pid: pid, Tid: j.Worker,
		})
	}
	return events
}

// SinkProgress returns a Progress callback that rewrites a transient
// "label: done/total" status line on sink while jobs run and, on the
// final job, replaces it with a permanent completion line including the
// elapsed wall-clock time. Because every line goes through the shared
// Sink, progress can never interleave with timing or log output.
func SinkProgress(sink *obs.Sink, label string) func(done, total int) {
	sw := obs.NewStopwatch()
	return func(done, total int) {
		if done < total {
			sink.Statusf("%s: %d/%d", label, done, total)
			return
		}
		sink.Logf("%s: %d/%d done in %s", label, done, total, sw.Elapsed().Round(time.Millisecond))
	}
}
