// Package tms implements Temporal Memory Streaming (Wenisch et al., ISCA
// 2005), the temporal-correlation baseline of the paper (§2.1–2.2).
//
// TMS records the sequence of off-chip read misses in a large circular
// buffer (the CMOB, ~2MB per processor, held in main memory) together with
// an index mapping each address to its most recent position. On an
// unpredicted off-chip miss, TMS locates the previous occurrence of the
// address and streams the blocks that followed it, throttled by consumption
// from the streamed value buffer.
package tms

import (
	"stems/internal/config"
	"stems/internal/flat"
	"stems/internal/mem"
	"stems/internal/stream"
	"stems/internal/trace"
)

// Stats counts predictor activity.
type Stats struct {
	Appends      uint64 // entries recorded in the CMOB
	StreamsBegun uint64 // successful index lookups that started a stream
	LookupMisses uint64 // off-chip misses with no prior occurrence
}

// TMS is the prefetcher.
type TMS struct {
	cfg    config.TMS
	engine *stream.Engine

	// cmob is the ring of miss block addresses, indexed by block: the
	// miss-order ring STeMS's RMOB also uses (flat.Ring). The index holds
	// a uint32 ring slot per live block, 4 MB beside the ring's 3 MB at
	// the paper's 384K entries.
	cmob *flat.Ring[mem.Addr, mem.Addr]

	// Per-stream read positions live in Queue.Cursor; all streams share
	// one refill closure and one chunk buffer (the engine copies chunks
	// into queue storage).
	refillFn func(q *stream.Queue)
	chunkBuf []mem.Addr

	stats Stats
}

// New creates a TMS prefetcher streaming through engine.
func New(cfg config.TMS, engine *stream.Engine) *TMS {
	if cfg.CMOBEntries <= 0 {
		cfg = config.DefaultTMS()
	}
	t := &TMS{
		cfg:    cfg,
		engine: engine,
		cmob:   flat.NewRing(cfg.CMOBEntries, func(b mem.Addr) mem.Addr { return b }),
	}
	t.refillFn = t.refillStream
	return t
}

// Name implements the Prefetcher interface.
func (t *TMS) Name() string { return "tms" }

// Stats returns cumulative statistics.
func (t *TMS) Stats() Stats {
	s := t.stats
	s.Appends = t.cmob.Appends()
	return s
}

// OnAccess implements the Prefetcher interface; TMS trains only on
// off-chip events.
func (t *TMS) OnAccess(trace.Access, bool) {}

// OnL1Evict implements the Prefetcher interface; TMS has no generations.
func (t *TMS) OnL1Evict(mem.Addr) {}

// OnOffChipEvent records the miss in the CMOB and, for uncovered misses,
// attempts to start a new stream from the previous occurrence of the
// address. Covered misses (SVB hits) are appended too — the recorded
// sequence must stay complete for future traversals — but do not spawn
// streams ("off-chip misses can initiate new streams", §4.2).
func (t *TMS) OnOffChipEvent(a trace.Access, covered bool) {
	if a.Write {
		return
	}
	block := a.Addr.Block()
	var prev uint64
	prevOK := false
	if !covered {
		prev, prevOK = t.cmob.Lookup(block)
	}
	t.cmob.Append(block)
	if covered {
		return
	}
	if !prevOK {
		t.stats.LookupMisses++
		return
	}
	t.startStream(prev + 1)
}

// readChunk fills the shared chunk buffer with up to n CMOB entries
// starting at *pos, advancing the position. It stops at the append head or
// when the ring has overwritten the requested region. The returned slice
// is valid until the next readChunk call; the stream engine copies it.
func (t *TMS) readChunk(pos *uint64, n int) []mem.Addr {
	t.chunkBuf = t.chunkBuf[:0]
	for len(t.chunkBuf) < n {
		// At fails at the append head, and where the ring overwrote the
		// position because the stream fell too far behind.
		b, ok := t.cmob.At(*pos)
		if !ok {
			break
		}
		t.chunkBuf = append(t.chunkBuf, b)
		*pos++
	}
	return t.chunkBuf
}

func (t *TMS) startStream(from uint64) {
	pos := from
	chunk := t.readChunk(&pos, 2*t.cfg.Lookahead)
	if len(chunk) == 0 {
		t.stats.LookupMisses++
		return
	}
	t.stats.StreamsBegun++
	q := t.engine.NewStream(chunk)
	q.Cursor = pos
	q.Refill = t.refillFn
}

// refillStream is the shared Refill hook: it resumes the CMOB traversal
// from the stream's cursor.
func (t *TMS) refillStream(q *stream.Queue) {
	pos := q.Cursor
	more := t.readChunk(&pos, 2*t.cfg.Lookahead)
	q.Cursor = pos
	if len(more) > 0 {
		t.engine.Extend(q, more)
	}
}

// CMOBLen returns the number of live entries in the circular buffer.
func (t *TMS) CMOBLen() int { return t.cmob.Len() }
