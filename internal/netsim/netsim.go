// Package netsim provides a deterministic discrete-event simulation kernel.
//
// All higher layers of the simulator (BGP message propagation, MRAI timers,
// data-plane probing, DNS resolution) are expressed as timestamped events on
// a single virtual clock. Determinism is guaranteed by (a) a seeded random
// number source and (b) a strict total order on events: time first, then a
// monotonically increasing sequence number so that events scheduled earlier
// fire earlier when timestamps tie.
package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"bestofboth/internal/obs"
)

// Seconds is the unit of virtual time used throughout the simulator.
type Seconds = float64

// Event is a scheduled callback on the simulator's virtual clock. Events
// carry either a plain closure (fn) or a shared function plus argument
// (afn, arg); the latter lets hot model paths recycle their payload structs
// through free-lists instead of allocating a fresh closure per event (see
// Sim.AtCall).
type event struct {
	at  Seconds
	seq uint64
	fn  func()
	afn func(any)
	arg any
}

func (e *event) run() {
	if e.afn != nil {
		e.afn(e.arg)
		return
	}
	e.fn()
}

// Calendar-queue geometry. Near-future events dominate the schedule (MRAI
// pacing, TCP-ordering nudges, probe ticks), so the queue keeps a calendar of
// fixed-width buckets covering calHorizon seconds ahead of the most recent
// rebase and spills everything further out into a small overflow heap. The
// bucket width is a power of two so the slot computation is an exact,
// monotone float scaling: a <= b always lands a in a bucket no later than b,
// which is what keeps execution order identical to a single global heap.
const (
	calSlots    = 1024
	calInvWidth = 16.0                         // buckets per second
	calWidth    = 1.0 / calInvWidth            // seconds per bucket
	calHorizon  = Seconds(calSlots) * calWidth // 64 s
	calSlotCap  = 4                            // pre-carved capacity per slot
	farHeapCap  = 64                           // pre-allocated overflow heap
)

// eventQueue is a two-level calendar queue ordered by (at, seq).
//
// Level one ("near") is a flat array of calSlots buckets; slot i holds
// events with at in [base + i*calWidth, base + (i+1)*calWidth), where base
// is the time of the last rebase. cur is the first slot that may still hold
// events; it only moves forward between rebases, so the array never wraps.
// Level two ("far") is a conventional binary min-heap holding everything at
// or beyond limit = base + calHorizon.
//
// Invariant: every near event is earlier than every far event (near events
// are < limit, far events >= limit, and limit only changes on a rebase,
// which happens when near is empty). pop therefore drains near completely
// before consulting far. Within the active slot the minimum is found by a
// linear scan with the exact (at, seq) comparator, so the execution order is
// bit-identical to the old global binary heap.
//
// The scan's result is cached in curMin, so the peekAt→pop pair every
// RunUntil step makes scans the slot once. A push into the active slot
// updates the cache in O(1); a pop, a slot advance and a rebase
// invalidate it. The slot stays unordered: heap-ordering it was measured
// slower, because sifting the pointer-carrying events costs more in
// moves and write barriers than the scan it saves.
type eventQueue struct {
	near  [][]event //cdnlint:nosnapshot snapshots require an empty queue; pending events hold closures over model state
	cur   int       //cdnlint:nosnapshot calendar position; meaningless while the queue is empty
	base  Seconds   //cdnlint:nosnapshot any value is valid: late pushes spill to far and settle rebases
	limit Seconds   //cdnlint:nosnapshot any value is valid: late pushes spill to far and settle rebases
	nearN int
	far   farHeap
	// curMin is the index of the earliest event in near[cur], or -1 when
	// unknown.
	curMin int //cdnlint:nosnapshot scan cache over pending events; -1 whenever the queue is empty
}

func newEventQueue() eventQueue {
	// One backing array, re-sliced per slot: slots keep their carved
	// capacity across rebases, so the steady-state event path never
	// allocates (pinned by TestEventPathZeroAllocs).
	backing := make([]event, calSlots*calSlotCap)
	near := make([][]event, calSlots)
	for i := range near {
		near[i] = backing[i*calSlotCap : i*calSlotCap : (i+1)*calSlotCap]
	}
	return eventQueue{
		near:   near,
		base:   0,
		limit:  calHorizon,
		far:    make(farHeap, 0, farHeapCap),
		curMin: -1,
	}
}

func (q *eventQueue) len() int { return q.nearN + len(q.far) }

func (q *eventQueue) push(e event) {
	if e.at >= q.limit {
		q.far.push(e)
		return
	}
	idx := int((e.at - q.base) * calInvWidth)
	// Clamp defensively: at can sit below base right after a peek-driven
	// rebase (the clock has not caught up yet), and boundary rounding can
	// land exactly on calSlots. Clamping only ever moves an event to an
	// earlier slot, which the exact in-slot scan handles.
	if idx < q.cur {
		idx = q.cur
	}
	if idx >= calSlots {
		idx = calSlots - 1
	}
	if idx == q.cur && q.curMin >= 0 && eventLess(&e, &q.near[idx][q.curMin]) {
		q.curMin = len(q.near[idx])
	}
	q.near[idx] = append(q.near[idx], e)
	q.nearN++
}

// settle advances cur to the first non-empty slot, rebasing the calendar
// from the overflow heap when the near level is exhausted. Returns false if
// the queue is empty.
func (q *eventQueue) settle() bool {
	if q.nearN == 0 {
		if len(q.far) == 0 {
			return false
		}
		// Rebase: restart the calendar window at the earliest far event and
		// migrate everything inside the new window down into the buckets.
		q.cur = 0
		q.curMin = -1
		q.base = q.far[0].at
		q.limit = q.base + calHorizon
		for len(q.far) > 0 && q.far[0].at < q.limit {
			e := q.far.pop()
			idx := int((e.at - q.base) * calInvWidth)
			if idx >= calSlots {
				idx = calSlots - 1
			}
			q.near[idx] = append(q.near[idx], e)
			q.nearN++
		}
		return true
	}
	for len(q.near[q.cur]) == 0 {
		q.cur++
		q.curMin = -1
	}
	return true
}

// eventLess is the queue's total order: time, then sequence number.
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// minIdx returns the index of the earliest event in the active slot,
// scanning it only when the cache is unknown.
func (q *eventQueue) minIdx() int {
	if q.curMin >= 0 {
		return q.curMin
	}
	slot := q.near[q.cur]
	m := 0
	for i := 1; i < len(slot); i++ {
		if eventLess(&slot[i], &slot[m]) {
			m = i
		}
	}
	q.curMin = m
	return m
}

// peekAt returns the timestamp of the earliest pending event.
func (q *eventQueue) peekAt() (Seconds, bool) {
	if !q.settle() {
		return 0, false
	}
	return q.near[q.cur][q.minIdx()].at, true
}

func (q *eventQueue) pop() event {
	q.settle()
	slot := q.near[q.cur]
	m := q.minIdx()
	e := slot[m]
	last := len(slot) - 1
	slot[m] = slot[last]
	slot[last] = event{} // release callbacks for GC
	q.near[q.cur] = slot[:last]
	q.nearN--
	q.curMin = -1
	return e
}

// farHeap is a binary min-heap of events ordered by (at, seq), holding the
// overflow beyond the calendar horizon.
type farHeap []event

func (h farHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *farHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *farHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{} // release the callback for GC
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q) && q.less(l, small) {
			small = l
		}
		if r < len(q) && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// countingSource wraps the stdlib random source and counts draws, so that a
// simulator's RNG state can be reproduced exactly by fast-forwarding a fresh
// source seeded identically (see Snapshot/Restore). It delegates without
// altering the draw sequence.
type countingSource struct {
	src   rand.Source64 //cdnlint:nosnapshot reconstructed by reseeding and fast-forwarding draws on restore
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// Sim is a discrete-event simulator with a virtual clock.
//
// Sim is not safe for concurrent use: the simulation model is single
// threaded by design so that runs are reproducible bit-for-bit. Distinct Sim
// instances are fully independent and may run on concurrent goroutines.
type Sim struct {
	now    Seconds
	seq    uint64
	queue  eventQueue
	src    *countingSource
	rng    *rand.Rand //cdnlint:nosnapshot view over src, which restore reseeds and fast-forwards
	nSteps uint64

	// driver, when non-nil, coordinates this simulator as the facade of a
	// multi-simulator group: Run, RunUntil, and Pending delegate to it so
	// existing call sites drive the whole group transparently (see
	// ShardRunner).
	driver Driver //cdnlint:nosnapshot wiring: drivers are re-attached when the world is rebuilt

	// Metrics are nil until Instrument attaches a registry; all of the
	// methods below no-op on nil receivers, so the uninstrumented event
	// path stays allocation-free (pinned by TestEventPathZeroAllocs).
	mSteps     *obs.Counter
	mScheduled *obs.Counter
	mQueueMax  *obs.Gauge
	mClockMax  *obs.Gauge
	mHorizon   *obs.Histogram
}

// New returns a simulator whose random source is seeded with seed.
// Two simulators built with the same seed and fed the same schedule of
// events produce identical executions.
func New(seed int64) *Sim {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Sim{src: src, rng: rand.New(src), queue: newEventQueue()}
}

// Instrument attaches kernel metrics to r: events scheduled and executed,
// the high-water queue depth, the furthest virtual clock reached, and the
// scheduling-horizon distribution (how far ahead of now events are placed).
// Instrumentation never changes execution — it draws no randomness and
// schedules nothing — so instrumented and bare runs are bit-identical.
// A nil registry detaches.
func (s *Sim) Instrument(r *obs.Registry) {
	s.mSteps = r.Counter("netsim_events_executed_total")
	s.mScheduled = r.Counter("netsim_events_scheduled_total")
	s.mQueueMax = r.Gauge("netsim_queue_depth_max")
	s.mClockMax = r.Gauge("netsim_virtual_time_max_seconds")
	s.mHorizon = r.Histogram("netsim_event_horizon_seconds",
		0.001, 0.01, 0.1, 1, 10, 60, 600, 3600)
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() Seconds { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() uint64 { return s.nSteps }

// Rand exposes the simulator's deterministic random source. Model code must
// draw all randomness from this source to preserve reproducibility.
func (s *Sim) Rand() *rand.Rand { return s.rng }

//cdnlint:allocfree
func (s *Sim) schedule(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %.6f before now %.6f", e.at, s.now))
	}
	if math.IsNaN(e.at) || math.IsInf(e.at, 0) {
		panic(fmt.Sprintf("netsim: invalid event time %v", e.at))
	}
	s.seq++
	e.seq = s.seq
	s.queue.push(e)
	// All metric fields are set together by Instrument, so one nil check
	// gates the whole group; Observe and SetMax do not inline, and the
	// disabled path must not pay their call overhead.
	if s.mScheduled != nil {
		s.mScheduled.Inc()
		s.mHorizon.Observe(e.at - s.now)
		s.mQueueMax.SetMax(float64(s.queue.len()))
	}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a model bug and silently reordering events
// would destroy determinism.
func (s *Sim) At(at Seconds, fn func()) {
	s.schedule(event{at: at, fn: fn})
}

// AtCall schedules fn(arg) at absolute virtual time at. Unlike At, the
// callback and its payload are stored separately, so model code that fires
// the same function with recycled argument structs (free-listed message
// deliveries, pending-export timers) schedules without allocating a closure.
//
//cdnlint:allocfree
func (s *Sim) AtCall(at Seconds, fn func(any), arg any) {
	s.schedule(event{at: at, afn: fn, arg: arg})
}

// After schedules fn to run d seconds from the current virtual time.
func (s *Sim) After(d Seconds, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Jitter returns a uniformly distributed delay in [lo, hi). It is a
// convenience for model code that randomizes processing and propagation
// times.
func (s *Sim) Jitter(lo, hi Seconds) Seconds {
	if hi <= lo {
		return lo
	}
	return lo + s.rng.Float64()*(hi-lo)
}

// SetDriver attaches (or, with nil, detaches) a Driver. While attached, Run,
// RunUntil, and Pending delegate to the driver, which is expected to advance
// this simulator as part of its group. Step stays local: drivers use it (via
// the unexported locals) to advance members without recursing.
func (s *Sim) SetDriver(d Driver) { s.driver = d }

// Pending reports the number of events waiting to run. With a driver
// attached it reports the whole group's pending work.
func (s *Sim) Pending() int {
	if s.driver != nil {
		return s.driver.Pending()
	}
	return s.queue.len()
}

// pendingLocal reports only this simulator's queued events, ignoring any
// attached driver.
func (s *Sim) pendingLocal() int { return s.queue.len() }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
//
//cdnlint:allocfree
func (s *Sim) Step() bool {
	if s.queue.len() == 0 {
		return false
	}
	e := s.queue.pop()
	s.now = e.at
	s.nSteps++
	if s.mSteps != nil {
		s.mSteps.Inc()
		s.mClockMax.SetMax(e.at)
	}
	e.run()
	return true
}

// Run executes events until the queue is empty. With a driver attached it
// runs the whole group to completion.
func (s *Sim) Run() {
	if s.driver != nil {
		s.driver.Run()
		return
	}
	s.runLocal()
}

func (s *Sim) runLocal() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to deadline. Events scheduled after deadline remain queued. With a
// driver attached it advances the whole group to deadline.
func (s *Sim) RunUntil(deadline Seconds) {
	if s.driver != nil {
		s.driver.RunUntil(deadline)
		return
	}
	s.runUntilLocal(deadline)
}

func (s *Sim) runUntilLocal(deadline Seconds) {
	for {
		at, ok := s.queue.peekAt()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for d seconds of virtual time from now.
func (s *Sim) RunFor(d Seconds) { s.RunUntil(s.now + d) }

// Snapshot captures the kernel state of a quiescent simulator: the clock,
// the event sequence counter, and the RNG position. Snapshots are only
// possible when the event queue is empty — pending events hold closures over
// model state that cannot be transplanted — which is exactly the state a
// fully converged network leaves behind.
type Snapshot struct {
	Now   Seconds
	seq   uint64
	steps uint64
	draws uint64
}

// Snapshot captures the current kernel state. It fails if events are
// pending.
func (s *Sim) Snapshot() (Snapshot, error) {
	if s.queue.len() != 0 {
		return Snapshot{}, fmt.Errorf("netsim: cannot snapshot with %d pending events", s.queue.len())
	}
	return Snapshot{Now: s.now, seq: s.seq, steps: s.nSteps, draws: s.src.draws}, nil
}

// Restore brings a simulator to a previously captured kernel state. The
// receiver must be freshly built with the same seed as the snapshotted
// simulator and must not have consumed more randomness than the snapshot
// recorded: the RNG is fast-forwarded, never rewound. After Restore the
// simulator produces the exact event timings and random draws the
// snapshotted one would.
func (s *Sim) Restore(snap Snapshot) error {
	if s.queue.len() != 0 {
		return fmt.Errorf("netsim: cannot restore with %d pending events", s.queue.len())
	}
	if s.src.draws > snap.draws {
		return fmt.Errorf("netsim: restore target has consumed %d draws, snapshot has %d", s.src.draws, snap.draws)
	}
	for s.src.draws < snap.draws {
		s.src.src.Int63()
		s.src.draws++
	}
	s.now = snap.Now
	s.seq = snap.seq
	s.nSteps = snap.steps
	return nil
}

// Timer is a cancellable scheduled event.
type Timer struct {
	fn func()
}

// AfterTimer schedules fn after d seconds and returns a handle that can stop
// it. A stopped timer's callback never runs.
func (s *Sim) AfterTimer(d Seconds, fn func()) *Timer {
	t := &Timer{fn: fn}
	s.After(d, t.fire)
	return t
}

func (t *Timer) fire() {
	if t.fn != nil {
		t.fn()
	}
}

// Stop prevents the timer's callback from running if it has not fired yet.
// The callback reference is dropped immediately, so whatever model state the
// closure captured becomes collectable at stop time rather than being pinned
// until the timer's original deadline.
func (t *Timer) Stop() { t.fn = nil }
