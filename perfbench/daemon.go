package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"stems"
	"stems/internal/enc"
)

// daemon is one stemsd child process on a free loopback port.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	base   string
	client *stems.Client
	http   *http.Client
	// startCPU is the CPU time the daemon had used when /healthz first
	// answered: exec, runtime start, store index rebuild, listen.
	startCPU time.Duration
}

// procs tracks every child the benchmark started, so each is stopped on
// every exit path.
type procs struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func (p *procs) add(d *daemon) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = make(map[*daemon]bool)
	}
	p.live[d] = true
}

func (p *procs) remove(d *daemon) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, d)
}

// killAll kills and reaps every child still running.
func (p *procs) killAll() {
	p.mu.Lock()
	live := p.live
	p.live = nil
	p.mu.Unlock()
	for d := range live {
		d.cmd.Process.Kill() //nolint:errcheck // already exiting is fine
		<-d.exited
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs stemsd on storeDir and returns once /healthz answers
// 200, with the CPU the start-up took in startCPU. The daemon and the
// benchmark share the machine: GOMAXPROCS is nproc for both, and the
// client opens at most nproc connections.
func (b *bench) startDaemon(ctx context.Context, storeDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(b.tmp, "stemsd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(b.stemsd, "-addr", addr, "-store", storeDir, "-log-level", "warn")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(b.nproc))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	tr := &http.Transport{
		MaxConnsPerHost:     b.nproc,
		MaxIdleConnsPerHost: b.nproc,
		IdleConnTimeout:     30 * time.Second,
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), base: "http://" + addr, http: &http.Client{Transport: tr}}
	d.client = stems.NewClient(d.base, d.http)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting stemsd: %w", err)
	}
	b.procs.add(d)
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is reported through health checks
		close(d.exited)
	}()
	deadline := time.After(60 * time.Second)
	for {
		if ok := d.healthy(ctx); ok {
			if d.startCPU, err = d.threadCPU(); err != nil {
				d.stop(b)
				return nil, err
			}
			return d, nil
		}
		select {
		case <-d.exited:
			b.procs.remove(d)
			return nil, fmt.Errorf("stemsd exited during start-up (see %s)", logf.Name())
		case <-deadline:
			d.stop(b)
			return nil, errors.New("stemsd did not answer /healthz within 60s")
		case <-ctx.Done():
			d.stop(b)
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// healthy reports whether /healthz answers 200.
func (d *daemon) healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop drains the daemon with SIGTERM, killing it after 20s, and waits
// for it to exit. A nil daemon (a failed restart) is a no-op.
func (d *daemon) stop(b *bench) {
	if d == nil {
		return
	}
	d.http.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-d.exited
	}
	b.procs.remove(d)
}

// threadCPU sums the on-CPU time of the daemon's threads from
// /proc/<pid>/task/*/schedstat, in nanoseconds — fine enough for a
// start-up that takes milliseconds. Time the hypervisor stole from the
// machine is not on-CPU time, so it is not counted.
func (d *daemon) threadCPU() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		ns, err := strconv.ParseInt(strings.Fields(string(data))[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// cpu is the daemon's user+system CPU time from /proc/<pid>/stat, which
// keeps the time of exited threads; its resolution is a clock tick.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the line, in USER_HZ (100/s) ticks.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat for pid %d", d.cmd.Process.Pid)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSSMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// peakRSSMB reads VmHWM from a /proc status file, in MB.
func peakRSSMB(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// scrape fetches the Prometheus exposition as a scraper would.
func (d *daemon) scrape(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics?format=prometheus", nil)
	if err != nil {
		return err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	return nil
}

// jobRec is one job as the client saw it. Times are offsets from the
// start of the job's phase; in a closed loop a job is due when sent.
type jobRec struct {
	due, sent, done      time.Duration
	lag                  time.Duration
	submit, wait, decode time.Duration
	phases               [enc.NumPhases]time.Duration
	phaseCounts          [enc.NumPhases]int64
	accesses             uint64
	results              []stems.RunResult
	keys                 []int // serve-hits: the key-set index of each run
	index                int   // serve-grid: the job's index in the seeded sequence
	scrape               bool
	traced               bool
	err                  error
}

// latency runs from the job's due time to its decoded results.
func (r *jobRec) latency() time.Duration { return dueLatency(r.due, r.done) }

// runJob submits spec, waits for its terminal status and decodes the
// results, with one span per client call; ctx bounds the whole job.
func (d *daemon) runJob(ctx context.Context, tr *tracer, spec stems.JobSpec) (rec jobRec) {
	rec.traced = tr != nil
	root := tr.open("job", -1, "")
	defer func() { tr.close(root, int64(len(rec.results))) }()

	s := time.Now()
	id := tr.open("server.submit", root, "")
	st, err := d.client.Submit(ctx, spec)
	tr.close(id, 1)
	rec.submit = time.Since(s)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	tr.setJob(st.ID, root, id)
	s = time.Now()
	waitID := tr.open("server.wait", root, st.ID)
	st, err = d.client.Wait(ctx, st.ID)
	tr.close(waitID, 1)
	rec.wait = time.Since(s)
	if err != nil {
		rec.err = fmt.Errorf("wait %s: %w", st.ID, err)
		return rec
	}
	if st.State != stems.JobDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return rec
	}
	s = time.Now()
	id = tr.open("enc.decode", root, st.ID)
	rec.results, err = st.DecodedResults()
	tr.close(id, int64(len(rec.results)))
	rec.decode = time.Since(s)
	if err != nil {
		rec.err = err
		return rec
	}
	for _, p := range st.Phases {
		for i, name := range enc.PhaseNames {
			if p.Phase == name {
				rec.phases[i] = time.Duration(p.Nanos)
				rec.phaseCounts[i] = p.Count
				tr.add("service."+name, waitID, st.ID, time.Time{}, time.Duration(p.Nanos), p.Count, true)
			}
		}
	}
	for _, r := range rec.results {
		rec.accesses += r.Accesses
	}
	return rec
}

// runScrape sends one Prometheus scrape as a job of its own.
func (d *daemon) runScrape(ctx context.Context, tr *tracer) jobRec {
	s := time.Now()
	id := tr.open("server.scrape", -1, "")
	err := d.scrape(ctx)
	tr.close(id, 1)
	return jobRec{scrape: true, traced: tr != nil, submit: time.Since(s), err: err}
}
