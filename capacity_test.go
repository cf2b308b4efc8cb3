// Whole-run Results of every registered kind at small predictor
// capacities, pinned. Rings of 1000 and 777 entries wrap many times in a
// 60k-access run and rebuild their indexes; a 3001-entry CMOB grows its
// storage twice before it first wraps, to a bound that is not a power of
// two. The values were computed when every table was still allocated at
// full size up front, so a table that grows as it fills must reproduce
// them exactly.
package stems_test

import (
	"fmt"
	"testing"

	"stems/internal/config"
	"stems/internal/sim"
	"stems/internal/trace"
	"stems/internal/workload"
)

// plainResult prints every Result field; sim.Result's String is a summary.
type plainResult sim.Result

// smallCapacityResults lists workload, stems.rmob_entries,
// tms.cmob_entries, kind and the Result. "stems+meta" is STeMS with
// virtualized metadata (the MetaModel's LRU cache).
var smallCapacityResults = []struct {
	workload   string
	rmob, cmob int
	kind       string
	want       string
}{
	{"DB2", 1000, 1000, "none", "{none 60000 60000 0 7140 22373 30487 0 0 0 0 0 0 0 11183625}"},
	{"DB2", 1000, 1000, "stride", "{stride 60000 60000 0 7140 22373 30487 0 0 0 0 0 0 0 11183625}"},
	{"DB2", 1000, 1000, "sms", "{sms 60000 60000 0 7140 22373 10604 19883 241 20124 0 0 0 0 9385551}"},
	{"DB2", 1000, 1000, "tms", "{tms 60000 60000 0 7140 22373 30487 0 0 0 0 0 0 0 11183625}"},
	{"DB2", 1000, 1000, "stems", "{stems 60000 60000 0 7140 22373 14368 16119 629 16748 0 18564 23419 15394 9532421}"},
	{"DB2", 1000, 1000, "naive-hybrid", "{naive-hybrid 60000 60000 0 7140 22373 9973 20514 648 21162 0 0 0 0 9132478}"},
	{"DB2", 1000, 1000, "epoch", "{epoch 60000 60000 0 7140 22373 24112 6375 901 7276 0 0 0 0 9740025}"},
	{"DB2", 1000, 1000, "stems+meta", "{stems 60000 60000 0 7140 22373 14368 16119 629 16748 2453 18564 23419 15394 9532421}"},
	{"DB2", 777, 3001, "none", "{none 60000 60000 0 7140 22373 30487 0 0 0 0 0 0 0 11183625}"},
	{"DB2", 777, 3001, "stride", "{stride 60000 60000 0 7140 22373 30487 0 0 0 0 0 0 0 11183625}"},
	{"DB2", 777, 3001, "sms", "{sms 60000 60000 0 7140 22373 10604 19883 241 20124 0 0 0 0 9385551}"},
	{"DB2", 777, 3001, "tms", "{tms 60000 60000 0 7140 22373 29681 806 312 1118 0 0 0 0 10891519}"},
	{"DB2", 777, 3001, "stems", "{stems 60000 60000 0 7140 22373 14565 15922 378 16300 0 9121 11485 6950 9616654}"},
	{"DB2", 777, 3001, "naive-hybrid", "{naive-hybrid 60000 60000 0 7140 22373 8041 22446 4805 27251 0 0 0 0 8360844}"},
	{"DB2", 777, 3001, "epoch", "{epoch 60000 60000 0 7140 22373 24112 6375 901 7276 0 0 0 0 9740025}"},
	{"DB2", 777, 3001, "stems+meta", "{stems 60000 60000 0 7140 22373 14565 15922 378 16300 2451 9121 11485 6950 9616654}"},
	{"em3d", 1000, 1000, "none", "{none 60000 60000 0 0 0 60000 0 0 0 0 0 0 0 13603500}"},
	{"em3d", 1000, 1000, "stride", "{stride 60000 60000 0 0 0 60000 0 2 2 0 0 0 0 13603500}"},
	{"em3d", 1000, 1000, "sms", "{sms 60000 60000 0 0 0 45650 14350 20141 34491 0 0 0 0 12275250}"},
	{"em3d", 1000, 1000, "tms", "{tms 60000 60000 0 0 0 60000 0 0 0 0 0 0 0 13603500}"},
	{"em3d", 1000, 1000, "stems", "{stems 60000 60000 0 0 0 49122 10878 15296 26174 0 0 0 0 12559212}"},
	{"em3d", 1000, 1000, "naive-hybrid", "{naive-hybrid 60000 60000 0 0 0 45650 14350 20141 34491 0 0 0 0 12275250}"},
	{"em3d", 1000, 1000, "epoch", "{epoch 60000 60000 0 0 0 60000 0 0 0 0 0 0 0 13603500}"},
	{"em3d", 1000, 1000, "stems+meta", "{stems 60000 60000 0 0 0 49122 10878 15296 26174 5726 0 0 0 12559212}"},
	{"em3d", 777, 3001, "none", "{none 60000 60000 0 0 0 60000 0 0 0 0 0 0 0 13603500}"},
	{"em3d", 777, 3001, "stride", "{stride 60000 60000 0 0 0 60000 0 2 2 0 0 0 0 13603500}"},
	{"em3d", 777, 3001, "sms", "{sms 60000 60000 0 0 0 45650 14350 20141 34491 0 0 0 0 12275250}"},
	{"em3d", 777, 3001, "tms", "{tms 60000 60000 0 0 0 60000 0 0 0 0 0 0 0 13603500}"},
	{"em3d", 777, 3001, "stems", "{stems 60000 60000 0 0 0 49122 10878 15296 26174 0 0 0 0 12559212}"},
	{"em3d", 777, 3001, "naive-hybrid", "{naive-hybrid 60000 60000 0 0 0 45650 14350 20141 34491 0 0 0 0 12275250}"},
	{"em3d", 777, 3001, "epoch", "{epoch 60000 60000 0 0 0 60000 0 0 0 0 0 0 0 13603500}"},
	{"em3d", 777, 3001, "stems+meta", "{stems 60000 60000 0 0 0 49122 10878 15296 26174 5726 0 0 0 12559212}"},
	{"Apache", 1000, 1000, "none", "{none 60000 60000 0 460 6570 52970 0 0 0 0 0 0 0 13230650}"},
	{"Apache", 1000, 1000, "stride", "{stride 60000 60000 0 460 6570 45330 7640 8 7648 0 0 0 0 12497210}"},
	{"Apache", 1000, 1000, "sms", "{sms 60000 60000 0 460 6570 13350 39620 0 39620 0 0 0 0 10096889}"},
	{"Apache", 1000, 1000, "tms", "{tms 60000 60000 0 460 6570 52970 0 0 0 0 0 0 0 13230650}"},
	{"Apache", 1000, 1000, "stems", "{stems 60000 60000 0 460 6570 15440 37530 583 38113 0 13768 19074 2903 10004325}"},
	{"Apache", 1000, 1000, "naive-hybrid", "{naive-hybrid 60000 60000 0 460 6570 13139 39831 531 40362 0 0 0 0 10017051}"},
	{"Apache", 1000, 1000, "epoch", "{epoch 60000 60000 0 460 6570 47604 5366 1960 7326 0 0 0 0 12231014}"},
	{"Apache", 1000, 1000, "stems+meta", "{stems 60000 60000 0 460 6570 15440 37530 583 38113 2132 13768 19074 2903 10004325}"},
	{"Apache", 777, 3001, "none", "{none 60000 60000 0 460 6570 52970 0 0 0 0 0 0 0 13230650}"},
	{"Apache", 777, 3001, "stride", "{stride 60000 60000 0 460 6570 45330 7640 8 7648 0 0 0 0 12497210}"},
	{"Apache", 777, 3001, "sms", "{sms 60000 60000 0 460 6570 13350 39620 0 39620 0 0 0 0 10096889}"},
	{"Apache", 777, 3001, "tms", "{tms 60000 60000 0 460 6570 52841 129 189 318 0 0 0 0 13181800}"},
	{"Apache", 777, 3001, "stems", "{stems 60000 60000 0 460 6570 15520 37450 355 37805 0 8786 13880 1991 10030759}"},
	{"Apache", 777, 3001, "naive-hybrid", "{naive-hybrid 60000 60000 0 460 6570 12424 40546 4340 44886 0 0 0 0 9738023}"},
	{"Apache", 777, 3001, "epoch", "{epoch 60000 60000 0 460 6570 47604 5366 1960 7326 0 0 0 0 12231014}"},
	{"Apache", 777, 3001, "stems+meta", "{stems 60000 60000 0 460 6570 15520 37450 355 37805 2123 8786 13880 1991 10030759}"},
}

func TestSmallCapacityResultsPinned(t *testing.T) {
	traces := map[string]*trace.BlockTrace{}
	for _, c := range smallCapacityResults {
		spec, err := workload.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		bt := traces[c.workload]
		if bt == nil {
			bt = trace.NewBlockTrace(spec.Generate(1, 60_000))
			traces[c.workload] = bt
		}
		opt := sim.DefaultOptions()
		opt.System = config.ScaledSystem()
		opt.Scientific = spec.Scientific
		opt.STeMS.RMOBEntries = c.rmob
		opt.TMS.CMOBEntries = c.cmob
		kind := sim.Kind(c.kind)
		if c.kind == "stems+meta" {
			kind = sim.KindSTeMS
			opt.VirtualizedMeta = true
		}
		m, err := sim.Build(kind, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%v", plainResult(m.RunBlocks(bt.Blocks()))); got != c.want {
			t.Errorf("%s rmob=%d cmob=%d %s:\n got %s\nwant %s", c.workload, c.rmob, c.cmob, c.kind, got, c.want)
		}
	}
}
