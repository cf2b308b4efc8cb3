package analysis

import (
	"fmt"

	"stems/internal/config"
	"stems/internal/mem"
	"stems/internal/sequitur"
	"stems/internal/sim"
	"stems/internal/trace"
)

// RepBreakdown is the Figure 7 taxonomy of one address sequence:
//
//	non-repetitive — addresses that do not recur as part of any repeated
//	                 sequence;
//	new            — the first occurrence of a repetitive sequence;
//	head           — the first element of subsequent occurrences;
//	opportunity    — non-head elements of repetitive occurrences.
//
// "Opportunity" is the fraction a temporal predictor could cover (§5.3).
type RepBreakdown struct {
	NonRepetitive uint64
	New           uint64
	Head          uint64
	Opportunity   uint64
}

// Total returns the sequence length classified.
func (r RepBreakdown) Total() uint64 {
	return r.NonRepetitive + r.New + r.Head + r.Opportunity
}

// Frac returns the four categories as fractions.
func (r RepBreakdown) Frac() (nonRep, newFrac, head, opp float64) {
	t := float64(r.Total())
	if t == 0 {
		return
	}
	return float64(r.NonRepetitive) / t, float64(r.New) / t,
		float64(r.Head) / t, float64(r.Opportunity) / t
}

// OpportunityFrac returns the repeated, coverable fraction.
func (r RepBreakdown) OpportunityFrac() float64 {
	_, _, _, opp := r.Frac()
	return opp
}

func (r RepBreakdown) String() string {
	n, nw, h, o := r.Frac()
	return fmt.Sprintf("non-rep=%.1f%% new=%.1f%% head=%.1f%% opportunity=%.1f%%",
		100*n, 100*nw, 100*h, 100*o)
}

// Categorize builds a Sequitur grammar over the sequence and classifies
// every element. Rule occurrences in the root are repetitive sequences;
// bare terminals in the root never recur as part of a repeat.
func Categorize(seq []uint64) RepBreakdown {
	g := sequitur.New()
	for _, v := range seq {
		g.Append(v)
	}
	var res RepBreakdown
	occ := make(map[*sequitur.Rule]int)

	// expand counts the terminals under a rule occurrence, bumping every
	// nested rule's occurrence count along the way.
	var expand func(r *sequitur.Rule) uint64
	expand = func(r *sequitur.Rule) uint64 {
		occ[r]++
		var n uint64
		for _, s := range sequitur.Body(r) {
			if s.Rule != nil {
				n += expand(s.Rule)
			} else {
				n++
			}
		}
		return n
	}

	for _, s := range g.RootSymbols() {
		if s.Rule == nil {
			res.NonRepetitive++
			continue
		}
		first := occ[s.Rule] == 0
		n := expand(s.Rule)
		if first {
			res.New += n
		} else {
			res.Head++
			res.Opportunity += n - 1
		}
	}
	return res
}

// Repetition is the Figure 7 result for one workload: the taxonomy of the
// full miss sequence and of the spatial-trigger subsequence.
type Repetition struct {
	AllAddrs RepBreakdown
	Triggers RepBreakdown
	// TriggerFrac is the fraction of misses that are triggers.
	TriggerFrac float64
}

// repetitionObserver collects the two sequences from the baseline run.
type repetitionObserver struct {
	tracker  *GenTracker
	all      []uint64
	triggers []uint64
}

func (o *repetitionObserver) Name() string { return "repetition-observer" }

func (o *repetitionObserver) OnAccess(trace.Access, bool) {}

func (o *repetitionObserver) OnL1Evict(block mem.Addr) { o.tracker.OnEvict(block) }

func (o *repetitionObserver) OnOffChipEvent(a trace.Access, covered bool) {
	if a.Write {
		return
	}
	block := uint64(a.Addr.Block())
	o.all = append(o.all, block)
	if o.tracker.OnMiss(a) {
		o.triggers = append(o.triggers, block)
	}
}

// Repetitions runs the Figure 7 analysis over one block-trace stream.
func Repetitions(sys config.System, bs trace.BlockSource) Repetition {
	obs := &repetitionObserver{tracker: NewGenTracker()}
	sim.NewMachine(sys, obs).RunBlocks(bs)
	rep := Repetition{
		AllAddrs: Categorize(obs.all),
		Triggers: Categorize(obs.triggers),
	}
	if len(obs.all) > 0 {
		rep.TriggerFrac = float64(len(obs.triggers)) / float64(len(obs.all))
	}
	return rep
}
