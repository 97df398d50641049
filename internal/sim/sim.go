// Package sim is the discrete-event simulation kernel that drives any
// core.Network through the paper's workload model (Section II):
//
//	(a) Poisson task arrivals per processor; exponential transmission
//	    and service times.
//	(b) Blocked tasks queue FIFO at their processor and retry as soon
//	    as their network signals availability (modeled by re-attempting
//	    allocation on every release event in the processor's own
//	    sub-network).
//	(c) Network propagation delay is negligible: allocation decisions
//	    are evaluated instantaneously at event times.
//	(d,e) One resource type; one resource per request.
//	(f) A processor transmits one task at a time.
//
// The measured quantity is d, the expected delay in the queue before a
// free resource is allocated (time from arrival to the start of
// transmission), reported with a batch-means confidence interval and
// normalized by the mean service time as in the paper's figures.
package sim

import (
	"errors"
	"fmt"
	"math"

	"rsin/internal/core"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/rng"
	"rsin/internal/stats"
)

// Config parameterizes one simulation run.
type Config struct {
	Lambda  float64   // per-processor arrival rate λ
	Lambdas []float64 // optional per-processor rates (overrides Lambda; len must equal the processor count)
	MuN     float64   // transmission rate μn
	MuS     float64   // service rate μs

	Seed      uint64  // PRNG seed; equal seeds give identical runs
	Warmup    float64 // simulated time discarded before measuring
	Samples   int     // post-warmup delay samples to collect
	BatchSize int     // batch size for the batch-means CI (default 1/30 of Samples)
	// MaxQueue is the safety cap on any single processor queue: the run
	// aborts with ErrSaturated as soon as a queue reaches MaxQueue tasks
	// (default 2^20). In practice the cap fires only when the offered
	// load exceeds the configuration's capacity.
	MaxQueue int

	// CollectDelays, when set, stores every post-warmup delay sample in
	// Result.Delays (Samples values). The differential tests compare
	// runs sample by sample through it, and internal/shard concatenates
	// the per-sub samples in sub order.
	CollectDelays bool

	// ExportAccumulators, when set, attaches the run's raw statistical
	// accumulators to Result.Accum so an orchestrator can combine
	// per-shard runs exactly (internal/shard). The Result's confidence
	// intervals are not mergeable on their own — merging needs the
	// underlying batch means.
	ExportAccumulators bool

	// Probe, when non-nil, receives the lifecycle events (arrivals,
	// enqueues, grants, transmissions, releases, rejects, completions)
	// of the kinds it reads (obs.KindsOf), stamped with simulated time.
	// The kernel builds no event of another kind. A nil Probe reads no
	// kind: every emission site is guarded by a test of its kind's bit,
	// so an unobserved run pays one branch per site. Probes observe the
	// full run including warmup.
	Probe obs.Probe
}

// Result carries the measured steady-state estimates of one run.
type Result struct {
	Delay           stats.CI // mean queueing delay d with 95% CI
	NormalizedDelay stats.CI // d·μs
	Response        stats.CI // mean response time (arrival → service completion)
	MeanQueue       float64  // time-averaged total queued tasks
	Utilization     float64  // fraction of port-time spent transmitting or reserved
	Completed       int64    // tasks fully served during measurement
	Telemetry       core.Telemetry
	Details         []core.NamedCounter // fine-grained network counters (core.DetailSource)
	SimTime         float64             // simulated duration (including warmup)
	Delays          []float64           // raw post-warmup delay samples (Config.CollectDelays)

	// Accum carries the run's raw accumulators when
	// Config.ExportAccumulators is set; nil otherwise.
	Accum *Accum
}

// Accum is the raw-accumulator export behind Config.ExportAccumulators:
// the batch-means accumulators that produced the Delay/Response
// intervals, and the port count that weights Utilization.
// internal/shard folds the accumulators across shards in canonical
// ascending order to build one merged Result; MeanQueue and
// Utilization merge from the Result fields themselves.
type Accum struct {
	Delays    *stats.BatchMeans // per-sample queueing delays
	Responses *stats.BatchMeans // per-task response times
	Ports     int               // net.Ports(), for the ports-weighted utilization merge
}

// ErrSaturated is returned when a processor queue exceeds Config.MaxQueue,
// which in practice means the offered load exceeds the configuration's
// capacity.
var ErrSaturated = errors.New("sim: queue exceeded MaxQueue; system appears saturated")

// Run drives net through the workload until Samples post-warmup delays
// are collected, and returns the measured metrics.
//
// net must be idle (freshly constructed): grants held by a previous run
// are never released by a later one, so reusing a network leaks
// capacity and biases the measurement toward saturation.
//
// The kernel is allocation-free in steady state: processor state lives
// in struct-of-arrays form (procTable), queued tasks in a free-list
// arena (taskArena), in-flight grants in the slot-reusing grantTable,
// and pending events in the timerTree, whose slots are the processors
// and the grant-table indexes — so once the structures have grown to
// the run's peak backlog and concurrency, the event loop performs zero
// heap allocations. arena_test.go pins this with testing.AllocsPerRun
// and a whole-run malloc-delta check, and the kernel differential
// matrix in kernel_diff_test.go proves the layout refactor changed no
// observable byte: Results and obs traces are identical to the retained
// pre-refactor kernel (runOracle).
//
// Run rejects a network with more than math.MaxInt32 processors or
// resources, which keeps the timer slots (one per processor plus one
// per outstanding grant, and outstanding grants never exceed the
// resource count) far inside an int.
func Run(net core.Network, cfg Config) (res Result, err error) {
	// Invariant violations inside the network models and accumulators
	// surface as panics (invariant.Assert, stats.ErrTimeBackwards);
	// convert the ones we recognize into errors and re-raise the rest.
	defer func() {
		if r := recover(); r != nil {
			if verr := invariant.ClassifyPanic(r); verr != nil {
				res, err = Result{}, fmt.Errorf("sim: %w", verr)
				return
			}
			panic(r)
		}
	}()
	if p, r := net.Processors(), net.TotalResources(); p > math.MaxInt32 || r > math.MaxInt32 {
		return Result{}, fmt.Errorf("sim: network too large: %d processors, %d resources (limit %d)", p, r, math.MaxInt32)
	}
	// NaN fails every comparison, and the rates are non-negative past
	// the comparisons, so their sum is infinite exactly when one is.
	if !(cfg.Lambda >= 0 && cfg.MuN > 0 && cfg.MuS > 0) || math.IsInf(cfg.Lambda+cfg.MuN+cfg.MuS, 0) {
		return Result{}, fmt.Errorf("sim: invalid rates λ=%g μn=%g μs=%g", cfg.Lambda, cfg.MuN, cfg.MuS)
	}
	// A NaN or +Inf warmup never ends, so no sample would ever be
	// collected and the run would never return. -Inf is rejected with
	// them; a warmup of 0 says the same.
	if math.IsNaN(cfg.Warmup) || math.IsInf(cfg.Warmup, 0) {
		return Result{}, fmt.Errorf("sim: invalid warmup %g", cfg.Warmup)
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
		if !(r >= 0) || math.IsInf(r, 0) {
			return Result{}, fmt.Errorf("sim: invalid arrival rate %g for processor %d", r, pid)
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
	k := newKernel(net, cfg, rates)
	if err := k.loop(); err != nil {
		return Result{}, err
	}
	if invariant.Enabled() {
		inFlight := int64(k.totalQ + k.busyPorts + k.inService)
		if verr := invariant.Conserved("sim", k.arrivedTotal, k.servedTotal, inFlight); verr != nil {
			return Result{}, verr
		}
		if out := k.grants.outstanding(); out != k.busyPorts+k.inService {
			return Result{}, invariant.Errorf("sim",
				"grant table leak: %d outstanding grants for %d tasks holding the network", out, k.busyPorts+k.inService)
		}
	}
	return k.result(), nil
}

// kernel is the state of one run. Its methods are the event loop's
// phases, one handler per event kind plus the allocation attempt
// (tryStart) and the post-release retry engine (wake) they share.
type kernel struct {
	net    core.Network
	cfg    Config
	rates  []float64 // per-processor arrival rates
	p      int       // processor count, and grant-table index 0's timer slot
	src    *rng.Source
	q      timerTree
	seq    uint64 // events scheduled so far: the FIFO tie-breaker
	now    float64
	pt     *procTable
	grants *grantTable

	// blocked tracks exactly the processors that are idle with a
	// nonempty queue — the ones whose last allocation attempt failed and
	// that a release could unblock.
	blocked *waiterSet

	// headSince[pid] is the simulated time pid's current head-of-queue
	// task became eligible to transmit: the first instant the engine
	// could attempt allocation for it (task at the head AND processor
	// idle). It feeds the per-request latency attribution — the span
	// arrival → headSince is queue wait behind the processor's earlier
	// tasks, headSince → transmit start is network blocking.
	headSince []float64

	delays, responses *stats.BatchMeans
	kept              []float64 // raw post-warmup delays (Config.CollectDelays)
	collected         int
	completed         int64
	queueLen, busyTW  stats.TimeWeighted
	totalQ, busyPorts int
	warmedUp          bool

	// Full-run flow counters for the conservation invariant; unlike
	// completed they are never reset at warmup.
	arrivedTotal, servedTotal int64
	inService                 int

	probe obs.Probe
	kinds obs.KindSet // the kinds probe reads; none without a probe
}

// newKernel builds the run's state and schedules every processor's
// first arrival. cfg has its defaults applied. The kernel is returned
// by value so it stays on run's stack instead of costing a heap
// allocation per run. Its tables stay behind pointers: embedded by
// value they made BenchmarkEngineThroughput's p=16 SBUS and XBAR runs
// about 5% slower (medians of 24 alternating runs, Intel Xeon 2-vCPU).
func newKernel(net core.Network, cfg Config, rates []float64) kernel {
	p := net.Processors()
	// Timer slots: one arrival per processor, then one per grant-table
	// index from slot p. The grant slots start at min(resources, 2p),
	// which covers the figures' and the benchmark's concurrency without
	// a resize; the tree grows past it only as far as a run's peak,
	// never to a huge resource count.
	k := kernel{
		net: net, cfg: cfg, rates: rates, p: p,
		src:       rng.New(cfg.Seed),
		q:         newTimerTree(p + min(net.TotalResources(), 2*p)),
		pt:        newProcTable(p, p),
		grants:    newGrantTable(),
		blocked:   newWaiterSet(p),
		headSince: make([]float64, p),
		delays:    stats.NewBatchMeans(int64(cfg.BatchSize)),
		responses: stats.NewBatchMeans(int64(cfg.BatchSize)),
		probe:     cfg.Probe,
		kinds:     obs.KindsOf(cfg.Probe),
	}
	if cfg.CollectDelays {
		k.kept = make([]float64, 0, cfg.Samples)
	}
	// Steady-state zero-allocation support: the batch-means slices are
	// the only unbounded accumulators left, so reserve their full-run
	// capacity up front (one batch mean per BatchSize samples, plus the
	// in-progress batch).
	k.delays.Reserve(cfg.Samples/cfg.BatchSize + 1)
	k.responses.Reserve(cfg.Samples/cfg.BatchSize + 1)
	k.queueLen.Set(0, 0)
	k.busyTW.Set(0, 0)
	for pid, r := range rates {
		if r > 0 {
			k.schedule(pid, k.src.Exp(r), evArrival)
		}
	}
	return k
}

// loop dispatches the earliest pending event until Samples post-warmup
// delays are collected or no event remains (every arrival rate is
// zero). The event stays in its timer slot while its handler runs; the
// handler re-arms or disarms the slot.
//
//lint:hotpath the event loop, once per simulated event
func (k *kernel) loop() error {
	for k.collected < k.cfg.Samples && k.q.armed > 0 {
		slot := k.q.next()
		t := k.q.time[slot]
		if invariant.Enabled() {
			if verr := invariant.NonDecreasing("sim", k.now, t); verr != nil {
				return verr
			}
		}
		k.now = t
		if !k.warmedUp && k.now >= k.cfg.Warmup {
			k.warmedUp = true
			k.queueLen.Reset()
			k.busyTW.Reset()
			k.completed = 0
		}
		switch k.q.kind[slot] {
		case evArrival:
			if err := k.arrival(slot); err != nil {
				return err
			}
		case evTxDone:
			k.txDone(slot - k.p)
		case evSvcDone:
			k.svcDone(slot - k.p)
		}
		if invariant.Enabled() {
			if verr := blockedInvariant(k.pt, k.blocked); verr != nil {
				return verr
			}
			if verr := k.pt.checkChains(); verr != nil {
				return verr
			}
			if verr := k.q.check(); verr != nil {
				return verr
			}
		}
	}
	return nil
}

// result assembles the run's Result from the closed accumulators.
func (k *kernel) result() Result {
	net, now := k.net, k.now
	res := Result{
		Delay:     k.delays.Interval(0.95),
		Response:  k.responses.Interval(0.95),
		Completed: k.completed,
		SimTime:   now,
		Delays:    k.kept,
	}
	res.MeanQueue = k.queueLen.Finish(now)
	res.Utilization = k.busyTW.Finish(now) / float64(net.Ports())
	res.NormalizedDelay = stats.CI{
		Mean:     res.Delay.Mean * k.cfg.MuS,
		HalfWide: res.Delay.HalfWide * k.cfg.MuS,
		N:        res.Delay.N,
	}
	if ts, ok := net.(core.TelemetrySource); ok {
		res.Telemetry = ts.Telemetry()
	}
	if ds, ok := net.(core.DetailSource); ok {
		res.Details = ds.DetailCounters()
	}
	if k.cfg.ExportAccumulators {
		res.Accum = &Accum{
			Delays:    k.delays,
			Responses: k.responses,
			Ports:     net.Ports(),
		}
	}
	return res
}

// schedule arms timer slot with an event of the given kind at time t,
// stamped with the next seq.
//
//lint:hotpath event scheduling, one call per simulated event
func (k *kernel) schedule(slot int, t float64, kind eventKind) {
	k.q.arm(slot, t, k.seq, kind)
	k.seq++
}

//lint:hotpath queue-length accumulator update
func (k *kernel) setQ(delta int) {
	k.totalQ += delta
	k.queueLen.Set(k.now, float64(k.totalQ))
}

//lint:hotpath busy-port accumulator update
func (k *kernel) setBusy(delta int) {
	k.busyPorts += delta
	k.busyTW.Set(k.now, float64(k.busyPorts))
}

// startTx begins transmission for pid's head-of-queue task (already
// granted). Returns the queueing delay of the task.
//
//lint:hotpath grant-to-transmission turnaround
func (k *kernel) startTx(pid int, g core.Grant) float64 {
	if invariant.Enabled() {
		// txDone finds the transmitting processor through the grant.
		invariant.Assert(g.Processor == pid, "sim", "Acquire(%d) returned a grant for processor %d", pid, g.Processor)
	}
	eligibleAt := k.headSince[pid]
	arrivedAt, req := k.pt.popFront(pid)
	k.setQ(-1)
	k.pt.transmitting[pid] = true
	k.setBusy(1)
	gi := k.grants.put(g, arrivedAt)
	k.schedule(k.p+gi, k.now+k.src.Exp(k.cfg.MuN), evTxDone)
	d := k.now - arrivedAt
	//lint:coldpath probe bookkeeping, skipped on the unobserved fast path
	if k.kinds != 0 {
		// Latency attribution: split d into queue wait (arrival →
		// eligible) and network blocking (eligible → now). arrivedAt ≤
		// eligibleAt ≤ now, and IEEE subtraction is monotone in the
		// subtrahend, so 0 ≤ block ≤ d without clamping; the fixup
		// loop then nudges wait until wait+block reproduces d bit for
		// bit (one float64 subtraction is almost always enough — the
		// loop is a guard against the rare double rounding).
		block := k.now - eligibleAt
		wait := d - block
		for i := 0; i < 8 && wait+block != d; i++ {
			wait += d - (wait + block)
		}
		k.grants.setAttr(gi, req, k.now, wait, block)
		//lint:coldpath probe emission, skipped unless the probe reads the kind
		if k.kinds.Has(obs.KindTransmitStart) {
			k.probe.Event(obs.Event{T: k.now, Kind: obs.KindTransmitStart, Pid: pid, Port: g.Port, Req: req, Dur: d})
		}
	}
	return d
}

//lint:hotpath per-sample delay recording
func (k *kernel) recordDelay(d float64) {
	if !k.warmedUp {
		return
	}
	k.delays.Add(d)
	if k.cfg.CollectDelays {
		//lint:ignore hotalloc kept has full-run capacity reserved in newKernel; pinned by TestRunSteadyStateZeroAlloc
		k.kept = append(k.kept, d)
	}
	k.collected++
}

// tryStart attempts to begin transmission for pid if it has queued
// work and is idle, registering pid as a blocked waiter when the
// attempt fails and clearing it on a grant.
//
//lint:hotpath allocation attempt, runs on every arrival and wake
func (k *kernel) tryStart(pid int) bool {
	if k.pt.transmitting[pid] || k.pt.qlen[pid] == 0 {
		return false
	}
	g, ok := k.net.Acquire(pid)
	if !ok {
		//lint:coldpath probe emission, skipped unless the probe reads the kind
		if k.kinds.Has(obs.KindReject) && g.Rejects > 0 {
			k.probe.Event(obs.Event{T: k.now, Kind: obs.KindReject, Pid: pid, Port: -1, Req: k.pt.arena.req[k.pt.qhead[pid]], Aux: g.Rejects})
		}
		k.blocked.add(pid)
		return false
	}
	//lint:coldpath probe emission, skipped unless the probe reads the kind
	if k.kinds.Has(obs.KindGrant) {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindGrant, Pid: pid, Port: g.Port, Req: k.pt.arena.req[k.pt.qhead[pid]], Aux: g.Rejects})
	}
	k.blocked.remove(pid)
	k.recordDelay(k.startTx(pid, g))
	return true
}

// wake retries the blocked processors in [lo, hi) after a release:
// the released grant's core.Peers block, which is its sub-network's
// processors, or all p when the network is not partitioned. Waiters
// retry in ascending index order — the asymmetric priority of the
// paper's distributed crossbar cells, whose wavefront the low-index
// processors win. wake visits only the registered blocked waiters of
// the range, in the order a full rescan of all p processors restricted
// to the range would reach them (runOracle's legacy mode with the range
// filter), so results are bit-for-bit identical:
//
//   - tryStart is a strict no-op (no Acquire, no RNG draw) for any
//     processor that is transmitting or has an empty queue, so
//     skipping non-waiters cannot change state, telemetry, or the
//     random stream;
//   - within a pass grants only consume network capacity, so no
//     processor becomes blocked mid-pass and the waiter set only
//     loses the members the pass itself grants;
//   - the full rescan repeats passes while any pass made progress, so
//     wake does too.
//
// Narrowing to the range leaves every delay unchanged: each capacity
// increase in a sub-network is followed by a wake of that sub-network,
// which repeats passes until none grants, and arrivals and grants only
// consume capacity, so a waiter outside the range would fail its next
// attempt as it failed its last. A failed attempt moves only network
// telemetry and probe events, which therefore count fewer attempts.
// One sub-network option voids the argument, and config.Build never
// sets it: omega.WithoutReroute can grant on less capacity, because a
// lane that closes sends the request down the other one.
//
//lint:hotpath post-release retry engine
func (k *kernel) wake(lo, hi int) {
	for progress := true; progress; {
		progress = false
		for pid := k.blocked.next(lo, hi); pid != -1; pid = k.blocked.next(pid+1, hi) {
			if k.tryStart(pid) {
				progress = true
			}
		}
	}
}

// peers returns the processor block a release of g can unblock: g's
// core.Peers range, or every processor.
//
//lint:hotpath
func (k *kernel) peers(g core.Grant) (lo, hi int) {
	if lo, hi, ok := core.Peers(g); ok {
		return lo, hi
	}
	return 0, k.p
}

// arrival queues a new task at pid, attempts to start it, and
// schedules pid's next arrival. It fails with ErrSaturated when pid's
// queue reaches MaxQueue.
//
//lint:hotpath
func (k *kernel) arrival(pid int) error {
	req := k.arrivedTotal
	k.arrivedTotal++
	//lint:coldpath probe emission, skipped unless the probe reads the kind
	if k.kinds.Has(obs.KindArrival) {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindArrival, Pid: pid, Port: -1, Req: req})
	}
	if k.pt.qlen[pid] == 0 && !k.pt.transmitting[pid] {
		// The task heads an empty queue on an idle processor: it
		// is eligible to transmit the instant it arrives.
		k.headSince[pid] = k.now
	}
	k.pt.push(pid, k.now, req)
	k.setQ(1)
	//lint:coldpath saturation abort, terminates the run
	if k.pt.queued(pid) >= k.cfg.MaxQueue {
		return fmt.Errorf("%w (processor %d, t=%g)", ErrSaturated, pid, k.now)
	}
	// The task has joined its processor's queue; report that
	// before the allocation attempt so probes see the causal
	// order enqueue → grant. Aux is the queue length including
	// this task.
	//lint:coldpath probe emission, skipped unless the probe reads the kind
	if k.kinds.Has(obs.KindEnqueue) {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindEnqueue, Pid: pid, Port: -1, Req: req, Aux: int64(k.pt.queued(pid))})
	}
	k.tryStart(pid)
	k.schedule(pid, k.now+k.src.Exp(k.rates[pid]), evArrival)
	return nil
}

// txDone ends the transmission on grant gi: the path is released,
// the task's service begins, and blocked waiters retry. The
// transmitting processor is the grant's Processor.
//
//lint:hotpath
func (k *kernel) txDone(gi int) {
	g := k.grants.get(gi)
	pid := g.Processor
	lo, hi := k.peers(g)
	k.net.ReleasePath(g)
	k.pt.transmitting[pid] = false
	if k.pt.qlen[pid] > 0 {
		// The processor turned idle with work still queued: it
		// is now a blocked waiter (its next task has not been
		// granted), so register it before the wake below. Its
		// head-of-queue task becomes eligible to transmit now.
		k.blocked.add(pid)
		k.headSince[pid] = k.now
	}
	k.setBusy(-1)
	k.inService++
	k.grants.markTx(gi, k.now)
	k.schedule(k.p+gi, k.now+k.src.Exp(k.cfg.MuS), evSvcDone)
	//lint:coldpath probe emission, skipped unless the probe reads the kind
	if k.kinds.Has(obs.KindTransmitEnd) {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindTransmitEnd, Pid: pid, Port: g.Port, Req: k.grants.req(gi)})
	}
	// The freed path (and bus) may unblock queued tasks of its
	// sub-network, including this processor's own next task.
	k.wake(lo, hi)
}

// svcDone completes the task served on grant gi: the resource is
// released, the response time recorded, and blocked waiters retry. It
// disarms gi's timer slot and reads gi's record in place, then frees gi
// before the wake, whose first grant reuses gi (the grant table's free
// list is LIFO) and re-arms the slot.
//
//lint:hotpath
func (k *kernel) svcDone(gi int) {
	k.q.disarm(k.p + gi)
	s := k.grants.slot(gi)
	lo, hi := k.peers(s.g)
	k.net.ReleaseResource(s.g)
	k.inService--
	k.servedTotal++
	k.completed++
	// Response estimates use only tasks whose whole lifetime lies
	// in the measurement window: a task that arrived before the
	// warmup cut carries transient queueing in its response and
	// would bias the steady-state mean.
	if k.warmedUp && s.arrived >= k.cfg.Warmup {
		k.responses.Add(k.now - s.arrived)
	}
	//lint:coldpath probe emission, skipped unless the probe reads the kind
	if k.kinds.Has(obs.KindRelease) {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindRelease, Pid: s.g.Processor, Port: s.g.Port, Req: s.req, Dur: k.now - s.txDone})
	}
	//lint:coldpath probe emission, skipped unless the probe reads the kind
	if k.kinds.Has(obs.KindComplete) {
		now := k.now
		// Close the request with its exact latency attribution.
		// resp is the same expression the Response estimator
		// consumes, tx/svc telescope between the stored stamps;
		// the fixup loop nudges svc until the left-to-right sum
		// (wait+block)+tx+svc reproduces resp bit for bit.
		resp := now - s.arrived
		tx := s.txDone - s.txStart
		svc := now - s.txDone
		partial := (s.wait + s.block) + tx
		for i := 0; i < 8 && partial+svc != resp; i++ {
			svc += resp - (partial + svc)
		}
		var measured int64
		if k.warmedUp && s.arrived >= k.cfg.Warmup {
			measured = 1
		}
		k.probe.Event(obs.Event{
			T: now, Kind: obs.KindComplete, Pid: s.g.Processor, Port: s.g.Port,
			Req: s.req, Aux: measured, Dur: resp,
			Wait: s.wait, Block: s.block, Tx: tx, Svc: svc,
		})
	}
	k.grants.release(gi)
	// The freed resource may unblock queued tasks of its sub-network.
	k.wake(lo, hi)
}

// grantTable stores outstanding grants (and their tasks' arrival times)
// indexed by small reusable ints; index gi owns timer slot p+gi.
type grantTable struct {
	slots []grantSlot
	free  []int
}

type grantSlot struct {
	g       core.Grant
	arrived float64
	txDone  float64 // when transmission ended (service span start)

	// Latency-attribution payload, populated by setAttr only when the
	// probe reads some kind (the oracle kernel and the unobserved fast
	// path never touch it; put zeroes it on slot reuse).
	req     int64
	txStart float64
	wait    float64 // queue-wait phase, fixed up so wait+block == delay d
	block   float64 // network-blocking phase
}

func newGrantTable() *grantTable { return &grantTable{} }

// put stores g and its task's arrival time in a free slot, reusing the
// most recently released index first, and returns the index. It writes
// the fields in place and clears the rest of the record.
//
//lint:hotpath
func (t *grantTable) put(g core.Grant, arrived float64) int {
	var i int
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		//lint:ignore hotalloc slot growth stops at the run's peak concurrency; pinned by TestHotStructuresZeroAlloc
		t.slots = append(t.slots, grantSlot{})
		i = len(t.slots) - 1
	}
	s := &t.slots[i]
	s.g, s.arrived, s.txDone = g, arrived, 0
	s.req, s.txStart, s.wait, s.block = 0, 0, 0, 0
	return i
}

//lint:hotpath
func (t *grantTable) get(i int) core.Grant { return t.slots[i].g }

// setAttr stores slot i's latency-attribution payload: request id,
// transmit-start time, and the fixed-up queue-wait/network-blocking
// phases. Called only when the probe reads some kind; put clears the
// fields on slot reuse, so the oracle kernel (which never calls setAttr)
// is unaffected.
//
//lint:hotpath
func (t *grantTable) setAttr(i int, req int64, txStart, wait, block float64) {
	s := &t.slots[i]
	s.req = req
	s.txStart = txStart
	s.wait = wait
	s.block = block
}

// req returns slot i's request id (meaningful only after setAttr).
//
//lint:hotpath
func (t *grantTable) req(i int) int64 { return t.slots[i].req }

// markTx stamps the time slot i's transmission completed, so the
// service-release event can report the service span.
//
//lint:hotpath
func (t *grantTable) markTx(i int, tx float64) { t.slots[i].txDone = tx }

// outstanding counts grants currently held (put but not yet released).
func (t *grantTable) outstanding() int { return len(t.slots) - len(t.free) }

// slot returns slot i's record in place. It stays valid until the
// next put, which may reuse or move it.
//
//lint:hotpath
func (t *grantTable) slot(i int) *grantSlot { return &t.slots[i] }

// release returns index i to the free list; the next put reuses it.
//
//lint:hotpath
func (t *grantTable) release(i int) {
	//lint:ignore hotalloc free-list append reuses capacity released by put; pinned by TestHotStructuresZeroAlloc
	t.free = append(t.free, i)
}
