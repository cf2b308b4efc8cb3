package workload

import (
	"testing"

	"stems/internal/mem"
)

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d workloads, want the paper's 10", len(suite))
	}
	wantOrder := []string{"Apache", "Zeus", "DB2", "Oracle", "Qry2", "Qry16", "Qry17", "em3d", "ocean", "sparse"}
	for i, s := range suite {
		if s.Name != wantOrder[i] {
			t.Errorf("suite[%d] = %s, want %s (paper figure order)", i, s.Name, wantOrder[i])
		}
		if s.DefaultAccesses <= 0 || s.Generate == nil {
			t.Errorf("%s: incomplete spec", s.Name)
		}
		if (s.Class == ClassSci) != s.Scientific {
			t.Errorf("%s: Scientific flag inconsistent with class", s.Name)
		}
	}
}

// TestGenerateAllocatesOnce pins that every generator sizes its trace for
// its last step's overshoot: a trace that outgrew its first allocation
// would have a capacity at least a quarter above its length.
func TestGenerateAllocatesOnce(t *testing.T) {
	for _, s := range Suite() {
		for _, n := range []int{4097, 50_000, 123_457} {
			out := s.Generate(3, n)
			if len(out) != n {
				t.Fatalf("%s: %d accesses, want %d", s.Name, len(out), n)
			}
			if cap(out) > n+2*mem.RegionBlocks {
				t.Errorf("%s, n=%d: capacity %d, so the trace was reallocated as it grew", s.Name, n, cap(out))
			}
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("DB2"); err != nil {
		t.Fatalf("ByName(DB2): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
	if len(Names()) != 10 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestDeterminism(t *testing.T) {
	for _, spec := range Suite() {
		a := spec.Generate(42, 5000)
		b := spec.Generate(42, 5000)
		if len(a) != 5000 || len(b) != 5000 {
			t.Fatalf("%s: lengths %d/%d, want 5000", spec.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: access %d differs between identical seeds", spec.Name, i)
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, spec := range Suite() {
		if spec.Name == "ocean" {
			continue // ocean's sweep is deterministic by construction
		}
		a := spec.Generate(1, 2000)
		b := spec.Generate(2, 2000)
		same := 0
		for i := range a {
			if a[i].Addr == b[i].Addr {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: identical traces for different seeds", spec.Name)
		}
	}
}

func TestBasicTraceSanity(t *testing.T) {
	for _, spec := range Suite() {
		accs := spec.Generate(7, 8000)
		var reads, thinks int
		for i, a := range accs {
			if a.Addr < heapBase {
				t.Fatalf("%s: access %d below heap base: %#x", spec.Name, i, a.Addr)
			}
			if !a.Write {
				reads++
			}
			if a.Think > 0 {
				thinks++
			}
		}
		if reads == 0 {
			t.Errorf("%s: no reads", spec.Name)
		}
		if thinks < len(accs)/2 {
			t.Errorf("%s: only %d/%d accesses carry think time", spec.Name, thinks, len(accs))
		}
	}
}

func TestPointerChaseWorkloadsHaveDependentAccesses(t *testing.T) {
	for _, name := range []string{"DB2", "Oracle", "Apache", "Zeus", "em3d", "sparse"} {
		spec, _ := ByName(name)
		accs := spec.Generate(1, 10000)
		dep := 0
		for _, a := range accs {
			if a.Dep {
				dep++
			}
		}
		if dep == 0 {
			t.Errorf("%s: no dependent accesses (pointer chases missing)", name)
		}
	}
}

func TestDSSScanNeverRevisitsPages(t *testing.T) {
	// The defining DSS property (§2.2): scans touch previously untouched
	// data, so scan-PC accesses are compulsory misses.
	spec, _ := ByName("Qry2")
	accs := spec.Generate(1, 60000)
	const pcScan = 0x2000
	seen := map[mem.Addr]bool{}
	for _, a := range accs {
		if a.PC == pcScan && a.Addr.RegionOffset() == 0 { // page triggers
			region := a.Addr.Region()
			if seen[region] {
				t.Fatalf("scan revisited region %#x", region)
			}
			seen[region] = true
		}
	}
	if len(seen) < 100 {
		t.Fatalf("scan touched only %d pages", len(seen))
	}
}

func TestEM3DIterationOrderRepeats(t *testing.T) {
	// §5.5: "the overall temporal sequence is perfectly repetitive". The
	// trigger sequence of iteration 2 must equal iteration 1's.
	spec, _ := ByName("em3d")
	accs := spec.Generate(1, spec.DefaultAccesses)
	var triggers []mem.Addr
	for _, a := range accs {
		if a.Dep { // node headers
			triggers = append(triggers, a.Addr)
		}
	}
	// Find the first repeat of triggers[0]; the sequence after it must
	// replay the prefix.
	period := -1
	for i := 1; i < len(triggers); i++ {
		if triggers[i] == triggers[0] {
			period = i
			break
		}
	}
	if period < 1000 {
		t.Fatalf("no plausible iteration period found (period=%d)", period)
	}
	for i := 0; i < period && period+i < len(triggers); i++ {
		if triggers[i] != triggers[period+i] {
			t.Fatalf("iteration order diverges at node %d", i)
		}
	}
}

func TestEM3DSamePCManyPatterns(t *testing.T) {
	// §5.5: "the same trigger PC leads to many different spatial patterns".
	spec, _ := ByName("em3d")
	accs := spec.Generate(1, 50000)
	patterns := map[mem.Addr]uint32{}
	for _, a := range accs {
		r := a.Addr.Region()
		patterns[r] |= 1 << a.Addr.RegionOffset()
	}
	distinct := map[uint32]bool{}
	for _, p := range patterns {
		distinct[p] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct per-region patterns; want many", len(distinct))
	}
}

func TestSparseTogglesAccessOrder(t *testing.T) {
	// §5.5: spatial patterns toggle between two delta sequences. The
	// second block offset visited in a row region differs between
	// iterations.
	spec, _ := ByName("sparse")
	accs := spec.Generate(1, spec.DefaultAccesses)
	// Row-region visits: group consecutive non-gather accesses by region.
	orders := map[mem.Addr][]int{}
	for _, a := range accs {
		if a.PC >= 0x6000 && a.PC < 0x6100 { // row accesses
			r := a.Addr.Region()
			if len(orders[r]) < 16 {
				orders[r] = append(orders[r], a.Addr.RegionOffset())
			}
		}
	}
	toggled := false
	for _, seq := range orders {
		if len(seq) >= 10 {
			first, second := seq[:5], seq[5:10]
			for i := range first {
				if first[i] != second[i] {
					toggled = true
				}
			}
			if toggled {
				break
			}
		}
	}
	if !toggled {
		t.Fatal("row access order does not toggle across iterations")
	}
}

func TestOceanDense(t *testing.T) {
	spec, _ := ByName("ocean")
	accs := spec.Generate(1, 100000)
	regions := map[mem.Addr]uint32{}
	for _, a := range accs {
		regions[a.Addr.Region()] |= 1 << a.Addr.RegionOffset()
	}
	dense := 0
	for _, mask := range regions {
		n := 0
		for ; mask != 0; mask &= mask - 1 {
			n++
		}
		if n == mem.RegionBlocks {
			dense++
		}
	}
	if dense < len(regions)/2 {
		t.Fatalf("only %d/%d regions fully dense; ocean should sweep whole regions", dense, len(regions))
	}
}

func TestLayoutEmitJitterPreservesSet(t *testing.T) {
	// Jitter may reorder but never change which blocks are touched.
	spec := Suite()[0]
	_ = spec
	// Use the internal layout machinery directly.
	rngAccesses := GenerateDSSQry16(3, 4000)
	perRegion := map[mem.Addr]map[int]bool{}
	for _, a := range rngAccesses {
		if a.PC >= 0x2000 && a.PC < 0x2800 {
			r := a.Addr.Region()
			if perRegion[r] == nil {
				perRegion[r] = map[int]bool{}
			}
			perRegion[r][a.Addr.RegionOffset()] = true
		}
	}
	// All scanned pages share one layout, so the touched-offset sets of
	// fully-visited pages must be identical (the trace's last page may be
	// truncated mid-visit).
	maxLen := 0
	for _, set := range perRegion {
		if len(set) > maxLen {
			maxLen = len(set)
		}
	}
	var ref map[int]bool
	for _, set := range perRegion {
		if len(set) != maxLen {
			continue
		}
		if ref == nil {
			ref = set
			continue
		}
		for off := range ref {
			if !set[off] {
				t.Fatalf("offset %d missing from a full page footprint", off)
			}
		}
	}
}
