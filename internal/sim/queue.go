package sim

// eventQueue is the pending-event structure behind sim.Run. Both
// implementations — the binary eventHeap in heap.go and the
// calendarQueue in calendar.go — pop events in identical (time, seq)
// order, so which one a run uses is purely a performance choice; the
// calendar fuzz test and the kernel differential matrix pin the
// equivalence.
type eventQueue interface {
	len() int
	push(event)
	pop() event
}

// calendarAutoP is the processor count from which Run uses the calendar
// queue instead of the binary heap. Above it the heap's O(log n) with a
// cache miss per level dominates. Below it the heap stays because the
// calendar allocates more. Measured with Go benchmarks of run on an
// Intel Xeon 2-vCPU Linux VM (go1.24), over Fig. 7/12's seven p=16
// configurations at ρ 0.3/0.6/0.9, 40k samples, μs/μn = 0.1:
//
//   - the calendar used a median 14% less CPU per run (from 35% less to
//     8% more), but allocated 2.3–3.6× the heap's bytes at ρ 0.6/0.9,
//     e.g. 55 KB vs 15 KB on 16/1x16x16 XBAR/2 at ρ=0.6, and 7–17× at
//     ρ=0.3;
//   - at ρ=0.3 its mallocs grew with run length, 1476 → 4296 for 40k →
//     120k samples on 16/1x16x16 XBAR/2 (2212 → 3973 on 16/8x2x2
//     OMEGA/2) while the heap's stayed at 63 (357), because resize
//     builds a new ring whenever the ring size changes.
//
// A figure sweep makes hundreds of such p=16 runs: at 40 KB or more
// each, the calendar would add several MiB to a paper16 benchmark pass
// that allocates 1.23 MiB with a 20% bound.
const calendarAutoP = 64

// newEventQueue returns the pending-event structure for a p-processor
// run.
func newEventQueue(p int) eventQueue {
	if p >= calendarAutoP {
		return newCalendarQueue()
	}
	return &eventHeap{}
}
