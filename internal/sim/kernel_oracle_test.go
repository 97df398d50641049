package sim

import (
	"fmt"

	"rsin/internal/core"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/rng"
	"rsin/internal/stats"
)

// This file freezes the pre-refactor simulation kernel — per-processor
// structs with slice-backed FIFOs and the binary event heap — verbatim
// as runOracle, the reference implementation for the kernel
// differential matrix in kernel_diff_test.go. With legacy set it also
// runs the pre-incremental wake engine (full rescans of every processor
// after each release), the oracle of the wake
// differential tests in wake_test.go: a fast path is accepted only
// while a byte-for-byte equivalence proof against the slow path it
// replaced keeps passing.
//
// Do not modify this copy when changing sim.go; it is the oracle, and
// drifting it would hollow out the proof. It always uses the binary
// heap. Six edits have been made since it was frozen. Two sit behind
// a parameter that restores the original when false: the legacy wake
// selector, and the peersOnly filter, with which both wake paths skip
// every processor outside the released grant's core.Peers range. The
// third gave the oracle private copies of the event record and the
// swap-based heap it was frozen with (oracleEvent, oracleHeap), when
// the kernel moved to a 24-byte event and a hole-sifting heap. The
// fourth deleted the non-legacy mode's core.AvailabilityHinter call
// when the kernel dropped it: every allocation attempt is one Acquire
// call in both modes, as it always was in legacy mode.
// The fifth moved the grant table's take method here, verbatim apart
// from its lint directives, when the kernel began reading its grant
// records in place: the oracle is take's only caller. The sixth
// passes the waiter scan its new upper bound p, the whole set, which
// is where the one-argument scan it was frozen with stopped.

// oracleEvent is the frozen kernel's 40-byte event record.
type oracleEvent struct {
	time float64
	seq  uint64 // FIFO tie-breaker for deterministic ordering
	kind eventKind
	pid  int // processor concerned (arrival, txDone)
	gidx int // grant table index (txDone, svcDone)
}

// oracleHeap is the frozen kernel's swap-based binary min-heap ordered
// by (time, seq), verbatim apart from the renames and its lint
// directives (rsinlint does not load test files).
type oracleHeap struct {
	items []oracleEvent
}

func (h *oracleHeap) len() int { return len(h.items) }

func (h *oracleHeap) less(a, b oracleEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (h *oracleHeap) push(e oracleEvent) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *oracleHeap) pop() oracleEvent {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < last && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// oracleProcState is the old kernel's per-processor struct (AoS
// layout, growable arrival-time slice).
type oracleProcState struct {
	queue        []float64 // arrival times of queued tasks (FIFO)
	transmitting bool
}

// runOracle is the pre-refactor sim.Run, verbatim apart from the
// renames to oracleProcState, oracleBlockedInvariant, oracleEvent and
// oracleHeap, the legacy wake selector, which was a Config field, and
// the peersOnly filter.
func runOracle(net core.Network, cfg Config, legacy, peersOnly bool) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if verr := invariant.ClassifyPanic(r); verr != nil {
				res, err = Result{}, fmt.Errorf("sim: %w", verr)
				return
			}
			panic(r)
		}
	}()
	if cfg.Lambda < 0 || cfg.MuN <= 0 || cfg.MuS <= 0 {
		return Result{}, fmt.Errorf("sim: invalid rates λ=%g μn=%g μs=%g", cfg.Lambda, cfg.MuN, cfg.MuS)
	}
	rates := cfg.Lambdas
	if rates == nil {
		rates = make([]float64, net.Processors())
		for i := range rates {
			rates[i] = cfg.Lambda
		}
	} else if len(rates) != net.Processors() {
		return Result{}, fmt.Errorf("sim: Lambdas has %d entries for %d processors", len(rates), net.Processors())
	}
	for pid, r := range rates {
		if r < 0 {
			return Result{}, fmt.Errorf("sim: negative arrival rate %g for processor %d", r, pid)
		}
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 100000
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = cfg.Samples / 30
		if cfg.BatchSize == 0 {
			cfg.BatchSize = 1
		}
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1 << 20
	}
	p := net.Processors()
	src := rng.New(cfg.Seed)
	procs := make([]oracleProcState, p)
	grants := newGrantTable()

	blocked := newWaiterSet(p)
	var wakeScratch []int
	if cfg.WakePolicy == WakeRandom && !legacy {
		wakeScratch = make([]int, p)
	}

	var (
		h         oracleHeap
		seq       uint64
		now       float64
		delays    = stats.NewBatchMeans(int64(cfg.BatchSize))
		responses = stats.NewBatchMeans(int64(cfg.BatchSize))
		collected int
		completed int64
		queueLen  stats.TimeWeighted
		busyTW    stats.TimeWeighted
		totalQ    int
		busyPorts int
		warmedUp  bool
		rrStart   int
		retryPend = make([]bool, p)

		arrivedTotal int64
		servedTotal  int64
		inService    int
	)
	schedule := func(e oracleEvent) {
		e.seq = seq
		seq++
		h.push(e)
	}
	setQ := func(delta int) {
		totalQ += delta
		queueLen.Set(now, float64(totalQ))
	}
	setBusy := func(delta int) {
		busyPorts += delta
		busyTW.Set(now, float64(busyPorts))
	}
	queueLen.Set(0, 0)
	busyTW.Set(0, 0)

	probe := cfg.Probe
	var telSrc core.TelemetrySource
	if probe != nil {
		telSrc, _ = net.(core.TelemetrySource)
	}
	rejectCount := func() int64 {
		if telSrc == nil {
			return 0
		}
		return telSrc.Telemetry().Rejects
	}

	for pid := 0; pid < p; pid++ {
		if rates[pid] > 0 {
			schedule(oracleEvent{time: src.Exp(rates[pid]), kind: evArrival, pid: pid})
		}
	}

	startTx := func(pid int, g core.Grant) float64 {
		ps := &procs[pid]
		arrivedAt := ps.queue[0]
		ps.queue = ps.queue[1:]
		setQ(-1)
		ps.transmitting = true
		setBusy(1)
		gi := grants.put(g, arrivedAt)
		schedule(oracleEvent{time: now + src.Exp(cfg.MuN), kind: evTxDone, pid: pid, gidx: gi})
		d := now - arrivedAt
		if probe != nil {
			probe.Event(obs.Event{T: now, Kind: obs.KindTransmitStart, Pid: pid, Port: g.Port, Dur: d})
		}
		return d
	}

	var kept []float64
	if cfg.CollectDelays {
		kept = make([]float64, 0, cfg.Samples)
	}
	recordDelay := func(d float64) {
		if !warmedUp {
			return
		}
		delays.Add(d)
		if cfg.CollectDelays {
			kept = append(kept, d)
		}
		collected++
	}

	tryStart := func(pid int) bool {
		ps := &procs[pid]
		if ps.transmitting || len(ps.queue) == 0 {
			return false
		}
		var rejBefore int64
		if probe != nil {
			rejBefore = rejectCount()
		}
		g, ok := net.Acquire(pid)
		if !ok {
			if probe != nil {
				if rej := rejectCount() - rejBefore; rej > 0 {
					probe.Event(obs.Event{T: now, Kind: obs.KindReject, Pid: pid, Port: -1, Aux: rej})
				}
			}
			blocked.add(pid)
			return false
		}
		if probe != nil {
			probe.Event(obs.Event{T: now, Kind: obs.KindGrant, Pid: pid, Port: g.Port, Aux: rejectCount() - rejBefore})
		}
		blocked.remove(pid)
		recordDelay(startTx(pid, g))
		return true
	}

	// The peersOnly filter: [wakeLo, wakeHi) is the released grant's
	// core.Peers range, or every processor.
	wakeLo, wakeHi := 0, p
	setWakeRange := func(g core.Grant) {
		wakeLo, wakeHi = 0, p
		if lo, hi, ok := core.Peers(g); peersOnly && ok {
			wakeLo, wakeHi = lo, hi
		}
	}
	outside := func(pid int) bool { return pid < wakeLo || pid >= wakeHi }

	wakeLegacy := func() {
		if cfg.RetryJitter > 0 {
			for pid := 0; pid < p; pid++ {
				ps := &procs[pid]
				if outside(pid) || retryPend[pid] || ps.transmitting || len(ps.queue) == 0 {
					continue
				}
				retryPend[pid] = true
				schedule(oracleEvent{time: now + src.Exp(1/cfg.RetryJitter), kind: evRetry, pid: pid})
			}
			return
		}
		switch cfg.WakePolicy {
		case WakeIndexOrder:
			for progress := true; progress; {
				progress = false
				for pid := 0; pid < p; pid++ {
					if !outside(pid) && tryStart(pid) {
						progress = true
					}
				}
			}
		case WakeRoundRobin:
			rrStart = (rrStart + 1) % p
			for progress := true; progress; {
				progress = false
				for i := 0; i < p; i++ {
					if pid := (rrStart + i) % p; !outside(pid) && tryStart(pid) {
						progress = true
					}
				}
			}
		case WakeRandom:
			for progress := true; progress; {
				progress = false
				for _, pid := range src.Perm(p) {
					if !outside(pid) && tryStart(pid) {
						progress = true
					}
				}
			}
		}
	}

	wake := func() {
		if legacy {
			wakeLegacy()
			return
		}
		if cfg.RetryJitter > 0 {
			for pid := blocked.next(0, p); pid != -1; pid = blocked.next(pid+1, p) {
				if outside(pid) || retryPend[pid] {
					continue
				}
				retryPend[pid] = true
				schedule(oracleEvent{time: now + src.Exp(1/cfg.RetryJitter), kind: evRetry, pid: pid})
			}
			return
		}
		switch cfg.WakePolicy {
		case WakeIndexOrder:
			for progress := true; progress; {
				progress = false
				for pid := blocked.next(0, p); pid != -1; pid = blocked.next(pid+1, p) {
					if !outside(pid) && tryStart(pid) {
						progress = true
					}
				}
			}
		case WakeRoundRobin:
			rrStart = (rrStart + 1) % p
			for progress := true; progress; {
				progress = false
				for pid := blocked.next(rrStart, p); pid != -1; pid = blocked.next(pid+1, p) {
					if !outside(pid) && tryStart(pid) {
						progress = true
					}
				}
				for pid := blocked.next(0, p); pid != -1 && pid < rrStart; pid = blocked.next(pid+1, p) {
					if !outside(pid) && tryStart(pid) {
						progress = true
					}
				}
			}
		case WakeRandom:
			for progress := true; progress; {
				progress = false
				src.PermInto(wakeScratch)
				for _, pid := range wakeScratch {
					if !outside(pid) && blocked.contains(pid) && tryStart(pid) {
						progress = true
					}
				}
			}
		}
	}

	for collected < cfg.Samples {
		if h.len() == 0 {
			break // λ == 0: nothing will ever happen
		}
		e := h.pop()
		if invariant.Enabled() {
			if verr := invariant.NonDecreasing("sim", now, e.time); verr != nil {
				return Result{}, verr
			}
		}
		now = e.time
		if !warmedUp && now >= cfg.Warmup {
			warmedUp = true
			queueLen.Reset()
			busyTW.Reset()
			completed = 0
		}
		switch e.kind {
		case evArrival:
			arrivedTotal++
			ps := &procs[e.pid]
			if probe != nil {
				probe.Event(obs.Event{T: now, Kind: obs.KindArrival, Pid: e.pid, Port: -1})
			}
			ps.queue = append(ps.queue, now)
			setQ(1)
			if len(ps.queue) >= cfg.MaxQueue {
				return Result{}, fmt.Errorf("%w (processor %d, t=%g)", ErrSaturated, e.pid, now)
			}
			if probe != nil {
				probe.Event(obs.Event{T: now, Kind: obs.KindEnqueue, Pid: e.pid, Port: -1, Aux: int64(len(ps.queue))})
			}
			tryStart(e.pid)
			schedule(oracleEvent{time: now + src.Exp(rates[e.pid]), kind: evArrival, pid: e.pid})
		case evTxDone:
			g := grants.get(e.gidx)
			setWakeRange(g)
			net.ReleasePath(g)
			procs[e.pid].transmitting = false
			if len(procs[e.pid].queue) > 0 {
				blocked.add(e.pid)
			}
			setBusy(-1)
			inService++
			grants.markTx(e.gidx, now)
			schedule(oracleEvent{time: now + src.Exp(cfg.MuS), kind: evSvcDone, gidx: e.gidx})
			if probe != nil {
				probe.Event(obs.Event{T: now, Kind: obs.KindTransmitEnd, Pid: e.pid, Port: g.Port})
			}
			wake()
		case evSvcDone:
			s := grants.take(e.gidx)
			setWakeRange(s.g)
			net.ReleaseResource(s.g)
			inService--
			servedTotal++
			completed++
			if warmedUp && s.arrived >= cfg.Warmup {
				responses.Add(now - s.arrived)
			}
			if probe != nil {
				probe.Event(obs.Event{T: now, Kind: obs.KindRelease, Pid: s.g.Processor, Port: s.g.Port, Dur: now - s.txDone})
			}
			wake()
		case evRetry:
			retryPend[e.pid] = false
			tryStart(e.pid)
		}
		if invariant.Enabled() {
			if verr := oracleBlockedInvariant(procs, blocked); verr != nil {
				return Result{}, verr
			}
		}
	}

	if invariant.Enabled() {
		inFlight := int64(totalQ + busyPorts + inService)
		if verr := invariant.Conserved("sim", arrivedTotal, servedTotal, inFlight); verr != nil {
			return Result{}, verr
		}
		if out := grants.outstanding(); out != busyPorts+inService {
			return Result{}, invariant.Errorf("sim",
				"grant table leak: %d outstanding grants for %d tasks holding the network", out, busyPorts+inService)
		}
	}

	res = Result{
		Delay:     delays.Interval(0.95),
		Response:  responses.Interval(0.95),
		Completed: completed,
		SimTime:   now,
		Delays:    kept,
	}
	res.MeanQueue = queueLen.Finish(now)
	res.Utilization = busyTW.Finish(now) / float64(net.Ports())
	res.NormalizedDelay = stats.CI{
		Mean:     res.Delay.Mean * cfg.MuS,
		HalfWide: res.Delay.HalfWide * cfg.MuS,
		N:        res.Delay.N,
	}
	if ts, ok := net.(core.TelemetrySource); ok {
		res.Telemetry = ts.Telemetry()
	}
	if ds, ok := net.(core.DetailSource); ok {
		res.Details = ds.DetailCounters()
	}
	return res, nil
}

// oracleBlockedInvariant is the old kernel's per-event waiter-set
// recount, over the AoS processor state.
func oracleBlockedInvariant(procs []oracleProcState, ws *waiterSet) error {
	count := 0
	for pid := range procs {
		blocked := !procs[pid].transmitting && len(procs[pid].queue) > 0
		if blocked {
			count++
		}
		if blocked != ws.contains(pid) {
			return invariant.Errorf("sim",
				"wake-list drift: processor %d blocked=%v but set membership=%v",
				pid, blocked, ws.contains(pid))
		}
	}
	if count != ws.n {
		return invariant.Errorf("sim",
			"wake-list count drift: %d processors blocked, set size %d", count, ws.n)
	}
	return nil
}

// take copies slot i's record out, clears the slot and returns index i
// to the free list.
func (t *grantTable) take(i int) grantSlot {
	s := t.slots[i]
	t.slots[i] = grantSlot{}
	t.free = append(t.free, i)
	return s
}
