// Command perfbench is the repository's benchmark: it measures how fast
// stems turns a (workload, predictor, knobs) choice into simulated
// statistics, locally through stems.Sweep and remotely through a stemsd
// child process, end to end with tracing off and layer by layer with
// tracing on. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it and
// stemsd from source:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Lines before it, each starting with '#', give the environment, sample
// counts and (traced) the per-layer self-time table.
//
//	perfbench -summarize run1.out run2.out ...
//
// prints each metric's median and quartile spread over saved outputs.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one benchmark run, start-up included.
const runLimit = 170 * time.Second

// bench is one benchmark run's configuration and resources.
type bench struct {
	root, stemsd, tmp string
	workload          string
	seed              int64
	seconds           time.Duration
	traced            bool
	nproc             int
	tr                *tracer
	procs             procs
	rec               recorded
}

// outcome is what a workload reports: operations attempted and failed,
// output-check failures, and metric values by name.
type outcome struct {
	attempted, failed int
	wrong             []string
	metrics           map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// wrongf records a failed output check.
func (o *outcome) wrongf(format string, args ...any) {
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, *bench) (*outcome, error){
	"sweep":      runSweep,
	"serve-hits": runServeHits,
	"serve-grid": runServeGrid,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "workload: sweep, serve-hits or serve-grid")
		seed      = flag.Int64("seed", 1, "workload seed; every input is derived from it")
		seconds   = flag.Int("seconds", 20, "length of the timed window in seconds")
		traced    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		root      = flag.String("root", ".", "repository root")
		stemsd    = flag.String("stemsd", "", "stemsd binary built from the repository")
		summarize = flag.Bool("summarize", false, "summarize saved outputs named as arguments")
		record    = flag.String("record", "", "print the output digests of this comma-separated seed list for digests.json and exit")
	)
	flag.Parse()
	if *summarize {
		if err := summarizeFiles(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	if *record != "" {
		if err := recordDigests(ctx, os.Stdout, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || *seed < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sweep|serve-hits|serve-grid, --seed >= 1, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	defs, err := loadMetricDefs(*root, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec, err := loadRecorded()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmpParent := filepath.Join(*root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(tmpParent, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		root: *root, stemsd: *stemsd, tmp: tmp, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		nproc: nproc, tr: newTracer(*traced == 1), rec: rec,
	}
	defer os.RemoveAll(tmp)
	defer b.procs.killAll()

	out, err := fn(ctx, b)
	b.procs.killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := b.writeSpans(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return 1
	}
	if err := b.print(os.Stdout, out, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadMetricDefs reads the metric list the run must report from
// BENCHMARK.json: end_to_end untraced, per_layer traced.
func loadMetricDefs(root string, traced bool) ([]metricDef, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// print writes the context lines and the result line.
func (b *bench) print(w io.Writer, o *outcome, defs []metricDef) error {
	fmt.Fprintf(w, "# env workload=%s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		b.workload, b.seed, int(b.seconds/time.Second), b.traced, b.nproc, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), b.commit())
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range o.wrong {
		fmt.Fprintf(w, "# WRONG OUTPUT: %s\n", m)
	}
	if b.traced {
		b.tr.report(w)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	failed := o.failed + len(o.wrong)
	attempted := max(o.attempted, 1)
	o.metrics["bench.failed_frac"] = float64(failed) / float64(attempted)
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	var extra []string
	for n, v := range o.metrics {
		if _, ok := metrics[n]; !ok {
			extra = append(extra, fmt.Sprintf("%s=%.6g", n, v))
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		fmt.Fprintf(w, "# also %s\n", strings.Join(extra, " "))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.wrong) == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeSpans writes the traced run's spans to .bench_build/spans.
func (b *bench) writeSpans() error {
	if !b.traced {
		return nil
	}
	dir := filepath.Join(b.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed)))
	if err != nil {
		return err
	}
	if err := b.tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel reads the first CPU model name.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured source: the git revision when the checkout
// has one, and always a digest of the Go sources, which identifies a
// checkout that is not a repository.
func (b *bench) commit() string {
	rev := "none"
	if _, err := os.Stat(filepath.Join(b.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", b.root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(b.root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best-effort identity
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(b.root, path)
				fmt.Fprintf(h, "%s %d\n", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return rev + "/src-" + hex.EncodeToString(h.Sum(nil)[:6])
}

// summarizeFiles reads the result line of each saved output and prints
// every metric's median, quartiles and quartile spread.
func summarizeFiles(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return errors.New("-summarize needs output files")
	}
	vals := make(map[string][]float64)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		var last string
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if t := strings.TrimSpace(sc.Text()); t != "" {
				last = t
			}
		}
		f.Close()
		var res struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("%s: last line is not a result: %w", p, err)
		}
		if !res.Correct || res.Failed > 0 {
			fmt.Fprintf(w, "%s: correct=%v failed=%d\n", p, res.Correct, res.Failed)
		}
		for n, m := range res.Metrics {
			vals[n] = append(vals[n], m.Value)
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %4s %14s %14s %14s %8s\n", "metric", "n", "median", "q1", "q3", "spread")
	for _, n := range names {
		v := vals[n]
		q1, q3, _ := quartiles(v)
		fmt.Fprintf(w, "%-36s %4d %14.6g %14.6g %14.6g %8.4f\n", n, len(v), median(v), q1, q3, quartileSpread(v))
	}
	return nil
}

// cpuStat reads the machine-wide CPU time counters of /proc/stat: all
// jiffies and the jiffies stolen by the hypervisor.
func cpuStat() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter reports the share of the machine's CPU time the hypervisor
// stole over an interval — the main source of run-to-run noise on a
// shared virtual machine.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s := cpuStat()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuStat()
	return ratio(float64(s-m.steal), float64(t-m.total))
}
