package analysis

import (
	"fmt"

	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/sim"
	"stems/internal/sms"
	"stems/internal/trace"
)

// JointResult is the Figure 6 classification: each baseline off-chip read
// miss is predictable by both techniques, only one, or neither.
type JointResult struct {
	Both    uint64
	TMSOnly uint64
	SMSOnly uint64
	Neither uint64
}

// Total returns the number of classified misses.
func (r JointResult) Total() uint64 { return r.Both + r.TMSOnly + r.SMSOnly + r.Neither }

// Frac returns each class as a fraction of all misses.
func (r JointResult) Frac() (both, tmsOnly, smsOnly, neither float64) {
	t := float64(r.Total())
	if t == 0 {
		return
	}
	return float64(r.Both) / t, float64(r.TMSOnly) / t, float64(r.SMSOnly) / t, float64(r.Neither) / t
}

// TMSCoverage returns the fraction predictable temporally.
func (r JointResult) TMSCoverage() float64 {
	b, t, _, _ := r.Frac()
	return b + t
}

// SMSCoverage returns the fraction predictable spatially.
func (r JointResult) SMSCoverage() float64 {
	b, _, s, _ := r.Frac()
	return b + s
}

// JointCoverage returns the fraction predictable by either technique.
func (r JointResult) JointCoverage() float64 {
	b, t, s, _ := r.Frac()
	return b + t + s
}

func (r JointResult) String() string {
	b, t, s, n := r.Frac()
	return fmt.Sprintf("both=%.1f%% tms-only=%.1f%% sms-only=%.1f%% neither=%.1f%%",
		100*b, 100*t, 100*s, 100*n)
}

// tmsOracle is the idealized temporal predictor used for classification:
// it tracks the full miss history and a bounded set of stream cursors; a
// miss is temporally predictable if it continues an active stream within a
// small reorder window.
type tmsOracle struct {
	history []mem.Addr
	last    map[mem.Addr]int
	streams []oracleStream
	window  int
	clock   int
	// buffered models the SVB: stream entries skipped by a small reorder
	// stay available until consumed or aged out.
	buffered map[mem.Addr]bool
	fifo     []mem.Addr
	svbCap   int
}

type oracleStream struct {
	pos    int // next history index expected
	active bool
	touch  int
}

func newTMSOracle(streams, window int) *tmsOracle {
	return &tmsOracle{
		last:     make(map[mem.Addr]int),
		streams:  make([]oracleStream, streams),
		window:   window,
		buffered: make(map[mem.Addr]bool),
		svbCap:   64,
	}
}

// buffer retains a skipped stream entry, evicting FIFO beyond capacity.
func (t *tmsOracle) buffer(b mem.Addr) {
	if t.buffered[b] {
		return
	}
	t.buffered[b] = true
	t.fifo = append(t.fifo, b)
	for len(t.fifo) > t.svbCap {
		delete(t.buffered, t.fifo[0])
		t.fifo = t.fifo[1:]
	}
}

// observe classifies one miss and updates the oracle state.
func (t *tmsOracle) observe(block mem.Addr) bool {
	t.clock++
	predicted := false
	if t.buffered[block] {
		predicted = true
		delete(t.buffered, block)
	}
	for i := range t.streams {
		if predicted {
			break
		}
		st := &t.streams[i]
		if !st.active {
			continue
		}
		limit := st.pos + t.window
		if limit > len(t.history) {
			limit = len(t.history)
		}
		for p := st.pos; p < limit; p++ {
			if t.history[p] == block {
				predicted = true
				// Entries skipped by the reorder stay buffered, as they
				// would in the SVB.
				for q := st.pos; q < p; q++ {
					t.buffer(t.history[q])
				}
				st.pos = p + 1
				st.touch = t.clock
				break
			}
		}
	}
	if !predicted {
		if prev, ok := t.last[block]; ok {
			// Restart the LRU stream from just past the prior occurrence.
			victim := 0
			for i := range t.streams {
				if !t.streams[i].active {
					victim = i
					break
				}
				if t.streams[i].touch < t.streams[victim].touch {
					victim = i
				}
			}
			t.streams[victim] = oracleStream{pos: prev + 1, active: true, touch: t.clock}
		}
	}
	t.last[block] = len(t.history)
	t.history = append(t.history, block)
	return predicted
}

// jointObserver wires the two oracles into the simulator's event stream.
type jointObserver struct {
	spatial  *sms.SMS
	temporal *tmsOracle
	res      JointResult
}

func (o *jointObserver) Name() string                        { return "joint-observer" }
func (o *jointObserver) OnAccess(a trace.Access, l1Hit bool) { o.spatial.OnAccess(a, l1Hit) }
func (o *jointObserver) OnL1Evict(block mem.Addr)            { o.spatial.OnL1Evict(block) }

func (o *jointObserver) OnOffChipEvent(a trace.Access, covered bool) {
	if a.Write {
		return
	}
	smsPred := o.spatial.WasPredicted(a.Addr)
	tmsPred := o.temporal.observe(a.Addr.Block())
	switch {
	case smsPred && tmsPred:
		o.res.Both++
	case tmsPred:
		o.res.TMSOnly++
	case smsPred:
		o.res.SMSOnly++
	default:
		o.res.Neither++
	}
}

// JointCollector exposes the Figure 6 classification as a panel machine:
// the observer machine it wraps replays the workload's trace next to the
// predictor machines (figures.FusedPanels), so the joint analysis shares
// their resident trace instead of resolving its own.
type JointCollector struct {
	obs *jointObserver
	m   *sim.Machine
}

// NewJointCollector builds the observer machine for one workload pass.
func NewJointCollector(sys config.System, smsCfg config.SMS) *JointCollector {
	obs := &jointObserver{
		spatial:  sms.New(smsCfg, nil),
		temporal: newTMSOracle(8, 8),
	}
	return &JointCollector{obs: obs, m: sim.NewMachine(sys, obs)}
}

// Machine returns the observer machine to replay.
func (c *JointCollector) Machine() *sim.Machine { return c.m }

// Result reads the classification; call it after the replay finishes.
func (c *JointCollector) Result() JointResult { return c.obs.res }

// Joint runs the Figure 6 classification over one block-trace stream.
func Joint(sys config.System, smsCfg config.SMS, bs trace.BlockSource) JointResult {
	c := NewJointCollector(sys, smsCfg)
	c.m.RunBlocks(bs)
	return c.Result()
}
