// Package core implements Spatio-Temporal Memory Streaming (STeMS), the
// paper's contribution (§3–§4).
//
// STeMS records the temporal sequence of spatial-region triggers (and
// spatially-unpredicted misses) in the region miss order buffer (RMOB),
// and the ordered access sequence within each region in the pattern
// sequence table (PST). Every event carries a delta — the number of global
// miss-order events interleaved since the previous event of its own stream.
// On an unpredicted off-chip miss, STeMS locates the previous occurrence of
// the address in the RMOB and *reconstructs* the total predicted miss order
// by interleaving temporal entries and their spatial sequences according to
// the deltas (Figure 5), then streams the result through stream queues and
// the streamed value buffer. Compulsory-miss regions are covered by
// spatial-only streams (§4.2).
//
// The configured structure sizes — the 128K-entry RMOB, the 16K-entry
// PST, the 64-entry AGT — are the paper's hardware capacities (§4.3), and
// here they are bounds, not allocations: each table starts small and
// grows as a run fills it (see internal/flat), so a short run holds only
// what it records while every prediction stays exactly what full-size
// tables would make.
package core

import (
	"stems/internal/config"
	"stems/internal/lru"
	"stems/internal/mem"
	"stems/internal/stream"
	"stems/internal/trace"
)

// Stats counts STeMS activity.
type Stats struct {
	Events             uint64 // off-chip read events observed
	Triggers           uint64 // spatial generations opened
	RMOBAppends        uint64 // entries recorded (triggers + spatial misses)
	SpatialFiltered    uint64 // events omitted from the RMOB (spatially predicted)
	ReconStreams       uint64 // streams begun from RMOB reconstruction
	SpatialOnlyStreams uint64 // streams begun from the PST alone
	LookupMisses       uint64 // unpredicted misses with no RMOB occurrence
	Retired            uint64 // generations trained into the PST
}

// agtGen is one active generation in the (sequence-recording) AGT.
type agtGen struct {
	trigger   mem.Addr // trigger block address
	pc        uint64   // trigger PC
	observed  uint32   // absolute region offsets recorded this generation
	elems     []SeqElem
	lastEvent uint64 // global event index of the last recorded access
}

// STeMS is the prefetcher. With a nil engine it trains without issuing
// fetches (analysis mode).
type STeMS struct {
	cfg    config.STeMS
	engine *stream.Engine

	pst   *PST
	rmob  *RMOB
	recon *Reconstructor
	agt   *lru.U64Map[*agtGen] // keyed by uint64(region)

	// reconRegions remembers, per region, the spatial lookup index used
	// during recent reconstructions — the state against which new
	// generations are compared to detect the need for spatial-only
	// streams (§4.2).
	reconRegions *lru.U64Map[uint64] // keyed by uint64(region); value Key.pack()

	eventIdx      uint64 // global off-chip read event counter
	lastRMOBEvent uint64 // eventIdx at the most recent RMOB append

	// meta, if non-nil, models predictor virtualization: every off-chip
	// metadata structure access (PST entries, RMOB segments) goes through
	// a small on-chip metadata cache whose misses consume real bandwidth.
	meta *MetaModel

	// Replay-loop scratch, reused so the per-access path stays
	// allocation-free in steady state: retired generations are recycled,
	// every reconstructed stream shares one refill closure (per-stream
	// position lives in Queue.Cursor), and the spatial-only path builds
	// into persistent buffers (the engine copies them into queue storage).
	genFree  []*agtGen
	refillFn func(q *stream.Queue)
	seqBuf   []SeqElem
	blockBuf []mem.Addr

	stats Stats
}

// New creates a STeMS prefetcher streaming through engine (which may be nil
// for analysis mode).
func New(cfg config.STeMS, engine *stream.Engine) *STeMS {
	if cfg.RMOBEntries <= 0 {
		cfg = config.DefaultSTeMS()
	}
	pst := NewPST(cfg.PSTEntries, cfg.UseCounters, cfg.CounterThreshold)
	rmob := NewRMOB(cfg.RMOBEntries)
	s := &STeMS{
		cfg:          cfg,
		engine:       engine,
		pst:          pst,
		rmob:         rmob,
		recon:        NewReconstructor(pst, rmob, cfg.ReconBufEntries, cfg.ReconSearch),
		agt:          lru.NewU64[*agtGen](cfg.AGTEntries),
		reconRegions: lru.NewU64[uint64](4096),
		genFree:      make([]*agtGen, 0, cfg.AGTEntries+1),
	}
	s.refillFn = s.refillStream
	return s
}

// Name implements the Prefetcher interface.
func (s *STeMS) Name() string { return "stems" }

// Stats returns cumulative statistics.
func (s *STeMS) Stats() Stats { return s.stats }

// PST exposes the pattern sequence table (read-only use).
func (s *STeMS) PST() *PST { return s.pst }

// RMOB exposes the region miss order buffer (read-only use).
func (s *STeMS) RMOB() *RMOB { return s.rmob }

// ReconStats returns reconstruction placement statistics.
func (s *STeMS) ReconStats() ReconStats { return s.recon.Stats() }

// SetMetaModel enables predictor virtualization (§6 / reference [2]):
// metadata accesses are filtered through mm's on-chip cache, with misses
// charged to memory bandwidth via mm.Transfer.
func (s *STeMS) SetMetaModel(mm *MetaModel) { s.meta = mm }

// Meta returns the virtualization model, if enabled.
func (s *STeMS) Meta() *MetaModel { return s.meta }

// OnAccess implements the Prefetcher interface. STeMS trains at off-chip
// event granularity (the sequences being reconstructed are sequences of
// off-chip misses), so L1-visible traffic needs no handling here.
func (s *STeMS) OnAccess(trace.Access, bool) {}

// OnL1Evict ends the generation containing the evicted block, committing
// its observed sequence to the PST (§4.1).
func (s *STeMS) OnL1Evict(block mem.Addr) {
	region := block.Region()
	g, ok := s.agt.Peek(uint64(region))
	if !ok {
		return
	}
	if g.observed&(1<<block.RegionOffset()) == 0 {
		return
	}
	s.agt.Delete(uint64(region))
	s.retire(g)
}

// retire trains the PST with a finished generation and recycles its
// storage.
func (s *STeMS) retire(g *agtGen) {
	s.stats.Retired++
	k := Key{PC: g.pc, Offset: g.trigger.RegionOffset()}
	if s.meta != nil {
		s.meta.TouchPST(k)
	}
	s.pst.Train(k, g.elems)
	g.elems = g.elems[:0]
	if len(s.genFree) < cap(s.genFree) {
		s.genFree = append(s.genFree, g)
	}
}

// newGen pops a recycled generation record, or allocates while the pool is
// still warming up.
func (s *STeMS) newGen() *agtGen {
	if n := len(s.genFree); n > 0 {
		g := s.genFree[n-1]
		s.genFree = s.genFree[:n-1]
		*g = agtGen{elems: g.elems[:0]}
		return g
	}
	return &agtGen{}
}

func clampDelta(cur, prev uint64) uint8 {
	d := cur - prev - 1
	if d > 255 {
		return 255
	}
	return uint8(d)
}

// OnOffChipEvent observes one off-chip read event (covered = satisfied by
// the SVB). It performs both training (AGT sequences, RMOB appends with
// spatial filtering) and prediction (reconstructed streams on unpredicted
// misses; spatial-only streams for new generations the reconstruction did
// not anticipate).
func (s *STeMS) OnOffChipEvent(a trace.Access, covered bool) {
	if a.Write {
		return
	}
	s.eventIdx++
	block := a.Addr.Block()
	region := block.Region()

	// Locate the previous occurrence before training appends this one.
	var prevPos uint64
	prevOK := false
	if !covered {
		prevPos, prevOK = s.rmob.Lookup(block)
	}

	isTrigger := false
	var trigKey Key
	if g, ok := s.agt.Get(uint64(region)); ok {
		bit := uint32(1) << block.RegionOffset()
		if g.observed&bit == 0 {
			g.observed |= bit
			rel := int8(block.RegionOffset() - g.trigger.RegionOffset())
			g.elems = append(g.elems, SeqElem{
				Offset: rel,
				Delta:  clampDelta(s.eventIdx, g.lastEvent),
			})
			g.lastEvent = s.eventIdx
			// RMOB filter (§4.1): spatially predicted misses are omitted;
			// spatial *misses* (unpredicted by the PST) are appended.
			genKey := Key{PC: g.pc, Offset: g.trigger.RegionOffset()}
			if s.meta != nil {
				s.meta.TouchPST(genKey)
			}
			if s.pst.Predicts(s.pst.Lookup(genKey), rel) {
				s.stats.SpatialFiltered++
			} else {
				s.appendRMOB(block, a.PC)
			}
		}
	} else {
		// Trigger: open a generation.
		isTrigger = true
		s.stats.Triggers++
		trigKey = Key{PC: a.PC, Offset: block.RegionOffset()}
		g := s.newGen()
		g.trigger = block
		g.pc = a.PC
		g.observed = uint32(1) << block.RegionOffset()
		g.lastEvent = s.eventIdx
		if _, victim, ev := s.agt.Put(uint64(region), g); ev {
			s.retire(victim)
		}
		s.appendRMOB(block, a.PC)
	}

	s.stats.Events++

	// Prediction side.
	reconStarted := false
	if !covered {
		if prevOK {
			s.startReconStream(block, prevPos)
			reconStarted = true
		} else {
			s.stats.LookupMisses++
		}
	}
	if isTrigger && !reconStarted {
		s.maybeSpatialOnly(block, trigKey, covered)
	}
}

func (s *STeMS) appendRMOB(block mem.Addr, pc uint64) {
	if s.meta != nil {
		s.meta.TouchRMOB(s.rmob.Appends())
	}
	s.rmob.Append(RMOBEntry{
		Block: block,
		PC:    pc,
		Delta: clampDelta(s.eventIdx, s.lastRMOBEvent),
	})
	s.lastRMOBEvent = s.eventIdx
	s.stats.RMOBAppends++
}

// startReconStream begins a reconstructed stream: the window starts at the
// *previous* occurrence of the missed block, so its spatial sequence (and
// everything that followed it last time) forms the predicted order. The
// stream's RMOB read position lives in Queue.Cursor so reconstruction
// resumes from where it left off on refill (§4.2).
func (s *STeMS) startReconStream(missBlock mem.Addr, prevPos uint64) {
	if s.engine == nil {
		return
	}
	pos := prevPos
	blocks := s.reconWindow(&pos)
	// The initiating miss itself is already being fetched on demand.
	if len(blocks) > 0 && blocks[0] == missBlock {
		blocks = blocks[1:]
	}
	if len(blocks) == 0 {
		return
	}
	s.stats.ReconStreams++
	q := s.engine.NewStream(blocks)
	q.Cursor = pos
	q.Refill = s.refillFn
}

// refillStream is the shared Refill hook for every reconstructed stream.
func (s *STeMS) refillStream(q *stream.Queue) {
	pos := q.Cursor
	more := s.reconWindow(&pos)
	q.Cursor = pos
	if len(more) > 0 {
		s.engine.Extend(q, more)
	}
}

// onReconRegion is the reconstruction notification hook. Window already
// folds the per-entry notifications down to one per distinct region in
// last-use order, so a plain Put per call reproduces the per-entry
// recency state exactly (the map is region-keyed, last writer wins).
func (s *STeMS) onReconRegion(region mem.Addr, k Key) {
	s.reconRegions.Put(uint64(region), k.pack())
}

func (s *STeMS) reconWindow(pos *uint64) []mem.Addr {
	before := *pos
	out := s.recon.Window(pos, s.onReconRegion)
	if s.meta != nil {
		// Reconstruction read the RMOB entries in [before, *pos) and
		// performed one PST lookup per entry (§4.2).
		for p := before; p < *pos; p++ {
			s.meta.TouchRMOB(p)
			if e, ok := s.rmob.At(p); ok {
				s.meta.TouchPST(Key{PC: e.PC, Offset: e.Block.RegionOffset()})
			}
		}
	}
	return out
}

// maybeSpatialOnly starts a PST-driven stream for a freshly opened
// generation that reconstruction did not (or wrongly) predict. Deltas are
// ignored — the stream is the region's access sequence alone (§4.2). This
// is the path that gives STeMS coverage on compulsory-miss regions (DSS
// scans), where the RMOB has no history.
func (s *STeMS) maybeSpatialOnly(trigger mem.Addr, k Key, covered bool) {
	if s.engine == nil {
		return
	}
	// A covered trigger whose region the reconstruction predicted (with
	// the same index) is already being streamed; launching a second stream
	// would thrash the queues. An *uncovered* trigger is direct evidence
	// the reconstructed prediction is not delivering — stream the pattern
	// regardless of what the reconstruction promised.
	if covered {
		if rk, ok := s.reconRegions.Get(uint64(trigger.Region())); ok && rk == k.pack() {
			return
		}
	}
	if s.meta != nil {
		s.meta.TouchPST(k)
	}
	ent := s.pst.Lookup(k)
	if ent == nil {
		return
	}
	s.seqBuf = s.pst.AppendPredicted(s.seqBuf[:0], ent)
	if len(s.seqBuf) == 0 {
		return
	}
	s.blockBuf = s.blockBuf[:0]
	for _, el := range s.seqBuf {
		b := mem.Addr(int64(trigger) + int64(el.Offset)*mem.BlockSize)
		if mem.SameRegion(b, trigger) {
			s.blockBuf = append(s.blockBuf, b)
		}
	}
	if len(s.blockBuf) == 0 {
		return
	}
	s.stats.SpatialOnlyStreams++
	s.engine.NewEagerStream(s.blockBuf)
}
