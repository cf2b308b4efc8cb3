// Package stream implements the streaming back end shared by the temporal
// and spatio-temporal prefetchers: a set of stream queues holding predicted
// address sequences, and the Streamed Value Buffer (SVB) holding prefetched
// blocks until the processor consumes them (§4.2, §4.3 of the paper).
//
// Throttling follows the paper: a newly allocated stream fetches a single
// probe block; once the processor consumes it the stream is trusted and kept
// topped up to its lookahead depth. Streams are victimized LRU-by-activity
// when all queues are busy. Blocks evicted from the SVB unconsumed are
// overpredictions.
//
// The engine sits directly on the replay loop's off-chip path, so all of
// its state is pre-sized at construction: the SVB is a fixed slot array
// indexed by an open-addressed flat table (no per-fetch heap entries), and
// queue address buffers are retained across stream victimizations. After
// warm-up the engine performs no allocations.
package stream

import (
	"stems/internal/flat"
	"stems/internal/mem"
)

// Fetcher issues an off-chip transfer for a prefetched block and returns
// the cycle at which the block will be ready in the SVB. The simulator's
// memory-channel model implements this, so bandwidth contention delays
// prefetch readiness.
type Fetcher interface {
	Fetch(block mem.Addr) (readyAt uint64)
}

// Config sizes the streaming engine.
type Config struct {
	Queues     int // concurrent stream queues (paper: 8)
	Lookahead  int // blocks kept in flight per stream (paper: 8 or 12)
	SVBEntries int // streamed value buffer capacity (paper: 64)
	// RefillThreshold: when a stream's pending addresses drop below this,
	// its Refill callback is invoked to extend the queue (reconstruction
	// resumes, or more CMOB entries are read). Defaults to Lookahead.
	RefillThreshold int
	// Adaptive enables dynamic lookahead adjustment between MinLookahead
	// and MaxLookahead: the engine deepens streams whose hits arrive late
	// (consumers waiting on in-flight blocks) and shallows them when hits
	// are comfortably early. This implements the direction of the paper's
	// related work (§6): self-repairing prefetchers "dynamically adjust
	// lookahead to ensure prefetches arrive just in time" and adaptive
	// stream detection "dynamically adjusts prefetch aggressiveness".
	Adaptive     bool
	MinLookahead int
	MaxLookahead int
}

func (c Config) withDefaults() Config {
	if c.Queues <= 0 {
		c.Queues = 8
	}
	if c.Lookahead <= 0 {
		c.Lookahead = 8
	}
	if c.SVBEntries <= 0 {
		c.SVBEntries = 64
	}
	if c.RefillThreshold <= 0 {
		c.RefillThreshold = c.Lookahead
	}
	if c.Adaptive {
		if c.MinLookahead <= 0 {
			c.MinLookahead = 2
		}
		if c.MaxLookahead < c.Lookahead {
			c.MaxLookahead = 2 * c.Lookahead
		}
	}
	return c
}

// Queue is one stream: a FIFO of predicted block addresses plus in-flight
// accounting. The pending FIFO is a head-indexed slice whose backing array
// survives victimization, so steady-state streaming does not allocate.
type Queue struct {
	id      int
	pending []mem.Addr
	ph      int // pending head: pending[ph:] is the live FIFO
	// Refill, if non-nil, is invoked when pending drops below the
	// threshold; the owner appends more addresses via Extend. It is the
	// hook through which STeMS "resumes reconstruction from where it left
	// off" (§4.2).
	Refill func(q *Queue)
	// Cursor is owner state: the predictor's read position for this stream
	// (the RMOB or CMOB position reconstruction resumes from).
	Cursor uint64

	inflight  int
	activity  uint64 // last fetch or hit stamp, for LRU victimization
	active    bool
	probation bool // only one block fetched until first consumption
	refilling bool
	dead      int // generation guard: bumped when victimized
}

// Len returns the number of pending (not yet fetched) addresses.
func (q *Queue) Len() int { return len(q.pending) - q.ph }

// push appends addrs to the FIFO, first compacting consumed headroom so the
// backing array is reused instead of regrown.
func (q *Queue) push(addrs []mem.Addr) {
	if q.ph > 0 {
		n := copy(q.pending, q.pending[q.ph:])
		q.pending = q.pending[:n]
		q.ph = 0
	}
	q.pending = append(q.pending, addrs...)
}

// pop removes and returns the FIFO head; the caller checks Len first.
func (q *Queue) pop() mem.Addr {
	a := q.pending[q.ph]
	q.ph++
	if q.ph == len(q.pending) {
		q.pending = q.pending[:0]
		q.ph = 0
	}
	return a
}

// Stats aggregates engine activity.
type Stats struct {
	Fetched       uint64 // blocks sent to the memory system
	Consumed      uint64 // SVB hits (useful prefetches)
	Overpredicted uint64 // blocks evicted from the SVB unconsumed
	Streams       uint64 // streams allocated
	Victimized    uint64 // streams killed for reallocation
	Skipped       uint64 // fetches suppressed (duplicate/present blocks)
	LateHits      uint64 // SVB hits that waited on an in-flight block
	AdaptRaises   uint64 // adaptive lookahead increases
	AdaptLowers   uint64 // adaptive lookahead decreases
}

type svbEntry struct {
	block    mem.Addr
	readyAt  uint64
	owner    int // queue id, -1 for direct fetches
	ownerGen int
	stamp    uint64
	active   bool
}

// svbRef is one svbRing entry: a slot id plus the stamp it was filled
// with, so a popped ref whose slot has since been released or refilled is
// recognized as stale.
type svbRef struct {
	slot  int32
	stamp uint64
}

// Engine owns the stream queues and the SVB.
type Engine struct {
	cfg     Config
	fetcher Fetcher
	// Clock returns the current simulation cycle; used for LRU stamps.
	Clock func() uint64
	// ShouldFetch, if non-nil, suppresses fetches for blocks the caller
	// knows are already on chip (e.g. present in L1/L2).
	ShouldFetch func(block mem.Addr) bool

	queues []Queue
	// The SVB: a fixed slot array, a block-address index over it, and a
	// free-slot stack. Occupancy is SVBEntries minus free slots. The index
	// is sized for at most 1/8 load: every demand miss, store and fetch
	// filter probes it, and at 1/2 load the probe runs and backward-shift
	// deletes of a table this small and this churned dominate. svbStamps
	// mirrors the entry stamps in one compact array so the eviction scan
	// (which runs with every slot occupied) touches a few cache lines
	// instead of the whole entry array.
	svb       []svbEntry
	svbStamps []uint64
	svbIndex  *flat.U64Table[int]
	svbFree   []int
	stamp     uint64
	stats     Stats

	// svbRing records fills in issue order so the eviction victim (the
	// minimum-stamp live entry — stamps are strictly monotonic at fill
	// time, so fill order IS stamp order) pops from the head instead of
	// an argmin scan over every slot. Entries whose slot was released or
	// refilled since the push are stale and skipped by stamp mismatch;
	// a full ring compacts in place (at most SVBEntries refs are live).
	svbRing  []svbRef
	ringHead int
	ringTail int

	// Adaptive lookahead state.
	curLookahead int
	adaptWindow  uint64 // consumptions observed in the current window
	adaptLate    uint64 // late consumptions in the current window
}

// NewEngine creates a streaming engine with the given fetcher.
func NewEngine(cfg Config, fetcher Fetcher) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:          cfg,
		fetcher:      fetcher,
		Clock:        func() uint64 { return 0 },
		svb:          make([]svbEntry, cfg.SVBEntries),
		svbStamps:    make([]uint64, cfg.SVBEntries),
		svbIndex:     flat.NewU64Table[int](4 * cfg.SVBEntries),
		svbFree:      make([]int, 0, cfg.SVBEntries),
		svbRing:      make([]svbRef, ringSize(cfg.SVBEntries)),
		queues:       make([]Queue, cfg.Queues),
		curLookahead: cfg.Lookahead,
	}
	for i := cfg.SVBEntries - 1; i >= 0; i-- {
		e.svbFree = append(e.svbFree, i)
	}
	for i := range e.queues {
		e.queues[i].id = i
	}
	return e
}

// Stats returns a snapshot of cumulative statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// NewStream allocates a stream queue (victimizing the least-recently-active
// one if necessary), seeds it with addrs, and fetches the probe block.
// It returns the queue so the owner can set Refill/Cursor before extending.
func (e *Engine) NewStream(addrs []mem.Addr) *Queue {
	return e.newStream(addrs, true)
}

// NewEagerStream is NewStream without the single-probe-block probation:
// the stream immediately fills its lookahead. Used for spatial-only streams,
// whose pattern confidence comes from the PST's saturating counters rather
// than from consumption of a probe (§4.2).
func (e *Engine) NewEagerStream(addrs []mem.Addr) *Queue {
	return e.newStream(addrs, false)
}

func (e *Engine) newStream(addrs []mem.Addr, probation bool) *Queue {
	victim := &e.queues[0]
	for i := range e.queues {
		q := &e.queues[i]
		if !q.active {
			victim = q
			break
		}
		if q.activity < victim.activity {
			victim = q
		}
	}
	if victim.active {
		e.stats.Victimized++
		// Blocks the dead stream already fetched remain in the SVB; if
		// never consumed they will age out as overpredictions, matching
		// the paper's accounting.
	}
	// Reset the queue but keep its pending backing array for reuse.
	*victim = Queue{
		id:        victim.id,
		dead:      victim.dead + 1,
		active:    true,
		probation: probation,
		pending:   victim.pending[:0],
	}
	victim.push(addrs)
	victim.activity = e.tick()
	e.stats.Streams++
	e.pump(victim)
	return victim
}

// Extend appends more predicted addresses to a live stream.
func (e *Engine) Extend(q *Queue, addrs []mem.Addr) {
	if !q.active {
		return
	}
	q.push(addrs)
	e.pump(q)
}

// Lookup performs a demand-side probe of the SVB for the block containing
// addr. On a hit the entry is consumed and the owning stream advances. It
// returns whether the block was present and the cycle at which it is (or
// will be) ready — a demand hit on an in-flight prefetch still waits for
// readyAt (timeliness, §5.6).
func (e *Engine) Lookup(addr mem.Addr) (hit bool, readyAt uint64) {
	block := addr.Block()
	slot, ok := e.svbIndex.Get(uint64(block))
	if !ok {
		return false, 0
	}
	ent := &e.svb[slot]
	owner, ownerGen := ent.owner, ent.ownerGen
	readyAt = ent.readyAt
	e.release(block, slot)
	e.stats.Consumed++
	if e.cfg.Adaptive {
		e.adapt(readyAt > e.Clock())
	} else if readyAt > e.Clock() {
		e.stats.LateHits++
	}
	if owner >= 0 {
		q := &e.queues[owner]
		if q.active && q.dead == ownerGen {
			if q.inflight > 0 {
				q.inflight--
			}
			q.activity = e.tick()
			if q.probation {
				// Probe consumed: the stream is useful; open it up.
				q.probation = false
			}
			e.pump(q)
		}
	}
	return true, readyAt
}

// release frees an SVB slot and its index mapping.
func (e *Engine) release(block mem.Addr, slot int) {
	e.svbIndex.Delete(uint64(block))
	e.svb[slot] = svbEntry{}
	e.svbFree = append(e.svbFree, slot)
}

// Contains reports whether block is currently buffered, without consuming.
func (e *Engine) Contains(addr mem.Addr) bool {
	return e.svbIndex.Has(uint64(addr.Block()))
}

// Direct fetches a single block into the SVB without stream ownership —
// the path used by the stride and SMS prefetchers, which predict sets of
// blocks rather than ordered streams.
func (e *Engine) Direct(block mem.Addr) {
	e.fetchInto(block, -1, 0)
}

// Invalidate removes a block (e.g. on a store to it), counting it as an
// overprediction if never consumed.
func (e *Engine) Invalidate(addr mem.Addr) {
	block := addr.Block()
	if slot, ok := e.svbIndex.Get(uint64(block)); ok {
		e.release(block, slot)
		e.stats.Overpredicted++
	}
}

// Drain counts all still-buffered blocks as overpredictions; call at end of
// simulation so unconsumed prefetches are accounted.
func (e *Engine) Drain() {
	for i := range e.svb {
		if e.svb[i].active {
			e.stats.Overpredicted++
			e.release(e.svb[i].block, i)
		}
	}
}

// adapt updates the dynamic lookahead from one consumption observation.
// Over each 64-consumption window: a high late rate deepens streams (up to
// MaxLookahead), a very low one shallows them (down to MinLookahead),
// trading timeliness against mispredictions as §4.3 describes.
func (e *Engine) adapt(late bool) {
	if late {
		e.adaptLate++
		e.stats.LateHits++
	}
	e.adaptWindow++
	if e.adaptWindow < 64 {
		return
	}
	rate := float64(e.adaptLate) / float64(e.adaptWindow)
	e.adaptWindow, e.adaptLate = 0, 0
	switch {
	case rate > 0.25 && e.curLookahead < e.cfg.MaxLookahead:
		e.curLookahead++
		e.stats.AdaptRaises++
	case rate < 0.05 && e.curLookahead > e.cfg.MinLookahead:
		e.curLookahead--
		e.stats.AdaptLowers++
	}
}

// Lookahead returns the current (possibly adapted) stream depth.
func (e *Engine) Lookahead() int { return e.curLookahead }

// drainInto fetches from the queue's FIFO until the stream reaches limit
// blocks in flight or runs out of addresses.
func (e *Engine) drainInto(q *Queue, limit int) {
	for q.inflight < limit && q.Len() > 0 {
		if e.fetchInto(q.pop().Block(), q.id, q.dead) {
			q.inflight++
		}
	}
}

// pump tops a stream up to its lookahead, honoring probation, and triggers
// the refill callback when the queue runs low.
func (e *Engine) pump(q *Queue) {
	limit := e.curLookahead
	if q.probation {
		limit = 1
	}
	e.drainInto(q, limit)
	if q.Len() < e.cfg.RefillThreshold && q.Refill != nil && !q.refilling {
		q.refilling = true
		q.Refill(q)
		q.refilling = false
		// One more pump pass in case the refill delivered addresses and
		// we still have lookahead headroom.
		e.drainInto(q, limit)
	}
}

// fetchInto issues the transfer and installs the SVB entry, evicting the
// oldest unconsumed entry if the SVB is full. Returns false if the fetch
// was suppressed.
func (e *Engine) fetchInto(block mem.Addr, owner int, ownerGen int) bool {
	if e.svbIndex.Has(uint64(block)) {
		e.stats.Skipped++
		return false
	}
	if e.ShouldFetch != nil && !e.ShouldFetch(block) {
		e.stats.Skipped++
		return false
	}
	if len(e.svbFree) == 0 {
		e.evictOldest()
	}
	slot := e.svbFree[len(e.svbFree)-1]
	e.svbFree = e.svbFree[:len(e.svbFree)-1]
	readyAt := e.fetcher.Fetch(block)
	e.svb[slot] = svbEntry{
		block:    block,
		readyAt:  readyAt,
		owner:    owner,
		ownerGen: ownerGen,
		stamp:    e.tick(),
		active:   true,
	}
	e.svbStamps[slot] = e.svb[slot].stamp
	e.svbIndex.Put(uint64(block), slot)
	e.ringPush(svbRef{slot: int32(slot), stamp: e.svb[slot].stamp})
	e.stats.Fetched++
	return true
}

// ringSize returns the svbRing capacity for n SVB slots: a power of two
// with headroom for stale refs between eviction drains.
func ringSize(n int) int {
	size := 8
	for size < 4*n {
		size <<= 1
	}
	return size
}

func (e *Engine) ringPush(r svbRef) {
	mask := len(e.svbRing) - 1
	if e.ringTail-e.ringHead == len(e.svbRing) {
		// Full: compact stale refs away. At most SVBEntries refs are
		// live (one per occupied slot), so this always recovers space.
		w := e.ringHead
		for i := e.ringHead; i < e.ringTail; i++ {
			ref := e.svbRing[i&mask]
			if e.svb[ref.slot].active && e.svb[ref.slot].stamp == ref.stamp {
				e.svbRing[w&mask] = ref
				w++
			}
		}
		e.ringTail = w
	}
	e.svbRing[e.ringTail&(len(e.svbRing)-1)] = r
	e.ringTail++
}

func (e *Engine) evictOldest() {
	// Called only with every slot occupied (the free list is empty), so
	// the ring holds a live ref for each slot: pop fill-order head refs,
	// skipping stale ones, until a live entry surfaces. Stamps strictly
	// increase fill to fill, so the head live ref is the argmin the
	// previous full scan computed.
	mask := len(e.svbRing) - 1
	victim := -1
	for e.ringHead < e.ringTail {
		ref := e.svbRing[e.ringHead&mask]
		e.ringHead++
		if e.svb[ref.slot].active && e.svb[ref.slot].stamp == ref.stamp {
			victim = int(ref.slot)
			break
		}
	}
	if victim < 0 {
		return
	}
	ent := e.svb[victim]
	e.release(ent.block, victim)
	e.stats.Overpredicted++
	if ent.owner >= 0 {
		q := &e.queues[ent.owner]
		if q.active && q.dead == ent.ownerGen && q.inflight > 0 {
			q.inflight--
		}
	}
}

func (e *Engine) tick() uint64 {
	// Combine the simulation clock with a monotonic tiebreaker so LRU is
	// total even within one cycle.
	e.stamp++
	return e.Clock()<<16 | (e.stamp & 0xffff)
}

// SVBOccupancy returns the number of blocks currently buffered.
func (e *Engine) SVBOccupancy() int { return e.cfg.SVBEntries - len(e.svbFree) }
