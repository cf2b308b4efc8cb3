// Command stemsd is the STeMS simulation daemon: it serves the engine
// over an HTTP/JSON API so simulations become cheap, cacheable network
// calls instead of per-invocation CLI state. Jobs flow through a bounded
// FIFO queue into a worker pool; identical configurations are served from
// a content-addressed result cache; workload traces are shared across
// jobs through one arena; per-block progress streams to clients via SSE.
//
//	stemsd -addr :8091 -workers 4 -queue 64 -cache 256
//
// With -store DIR the result cache gains a disk tier: every computed
// result is persisted under its content address (atomic writes,
// CRC-checked reads), so a restarted daemon answers repeat jobs from
// disk without recomputing. With -peers (a comma-separated list of every
// cluster daemon's base URL) the daemon joins a static shard map and
// /metrics reports how submitted runs distribute over their owners; add
// -self with this daemon's own URL to also count misrouted runs. Routing
// itself is client-side — see stems.NewClusterClient and README
// "Running a cluster".
//
// With -config FILE the daemon loads a JSON config file carrying every
// flag plus the blocks that have no flag form: completion notifiers
// (webhook or log) and recurring cron schedules. Flags set explicitly on
// the command line override their file counterparts. Schedules can also
// be managed at runtime over POST/GET/DELETE /v1/schedules; fire state
// persists to schedule_state (default <store>/schedules.json when -store
// is set) so cadence survives restarts. See README "Config file" and
// "Schedules & notifiers".
//
// Observability: GET /metrics serves the JSON counters document, and
// with ?format=prometheus the full Prometheus text exposition —
// per-route request histograms, per-phase job latency histograms, cache
// and store counters. -pprof mounts /debug/pprof/ for live CPU and heap
// profiles. Logs are structured (log/slog): -log-level selects
// verbosity, -log-format text or JSON lines. See README
// "Observability".
//
// Submit and watch with curl (see README "Running the service") or the
// typed client in the stems package (stems.NewClient).
//
// On SIGTERM/SIGINT the daemon stops firing schedules and accepting
// jobs (503 "draining"), finishes queued and in-flight work, delivers
// their completion notifications, then exits 0. A second signal cancels
// outstanding jobs instead of completing them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"stems/internal/conf"
	"stems/internal/enc"
	"stems/internal/notify"
	"stems/internal/obs"
	"stems/internal/sched"
	"stems/internal/server"
	"stems/internal/service"
	"stems/internal/store"
)

func main() {
	var (
		configPath   = flag.String("config", "", "JSON config file: every flag plus notifier and schedule blocks (explicit flags win; see README \"Config file\")")
		showVersion  = flag.Bool("version", false, "print version and exit")
		addr         = flag.String("addr", ":8091", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulation workers (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "max queued jobs before submissions shed with 503")
		cache        = flag.Int("cache", 256, "result-cache entries (LRU)")
		traces       = flag.Int("traces", 8, "resident workload traces in the shared arena (LRU; raised to worker count when smaller)")
		retain       = flag.Int("retain", 1024, "finished jobs kept queryable before the oldest are forgotten")
		drain        = flag.Duration("drain-timeout", 2*time.Minute, "max time to wait for open connections after drain")
		storeDir     = flag.String("store", "", "disk-backed result store directory (persists the cache across restarts; empty = memory-only)")
		storeEntries = flag.Int("store-entries", 4096, "max result files retained in -store (LRU)")
		peers        = flag.String("peers", "", "comma-separated base URLs of every cluster daemon, this one included (enables shard-routing metrics)")
		self         = flag.String("self", "", "this daemon's own base URL within -peers (counts misrouted submissions)")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error (debug adds per-request and per-job-submit lines)")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		pprofOn      = flag.Bool("pprof", false, "mount /debug/pprof/ (CPU, heap, goroutine profiles; exposes process memory — enable on trusted networks only)")
	)
	flag.Parse()

	version, revision := buildVersion()
	if *showVersion {
		fmt.Printf("stemsd %s (%s)\n", version, revision)
		return
	}

	// Resolve configuration: flag defaults, overlaid by the config file,
	// overlaid by flags the user passed explicitly.
	set := conf.Settings{
		Addr:         *addr,
		Workers:      *workers,
		Queue:        *queue,
		Cache:        *cache,
		Traces:       *traces,
		Retain:       *retain,
		DrainTimeout: *drain,
		Store:        *storeDir,
		StoreEntries: *storeEntries,
		Self:         *self,
		LogLevel:     *logLevel,
		LogFormat:    *logFormat,
		Pprof:        *pprofOn,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			set.Peers = append(set.Peers, strings.TrimSpace(p))
		}
	}
	if *configPath != "" {
		file, err := conf.Load(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stemsd: %v\n", err)
			os.Exit(2)
		}
		explicit := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		file.Apply(&set, func(name string) bool { return explicit[name] })
	}
	if set.ScheduleState == "" && set.Store != "" {
		set.ScheduleState = filepath.Join(set.Store, "schedules.json")
	}

	logger, err := newLogger(set.LogLevel, set.LogFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stemsd: %v\n", err)
		os.Exit(2)
	}

	cfg := service.Config{
		Workers:    set.Workers,
		QueueBound: set.Queue,
		CacheBound: set.Cache,
		TraceBound: set.Traces,
		RetainJobs: set.Retain,
		Self:       set.Self,
		Peers:      set.Peers,
		Logger:     logger,
	}
	if set.Store != "" {
		start := time.Now()
		st, err := store.Open(set.Store, set.StoreEntries)
		if err != nil {
			fatal(logger, "opening result store", err)
		}
		openMS := float64(time.Since(start).Microseconds()) / 1000
		stats := st.Stats()
		logger.Info("result store", "dir", set.Store, "entries", stats.Entries, "bytes", stats.Bytes,
			"open_ms", openMS, "migrated", stats.Migrated)
		cfg.Store = st
	}

	svc, err := service.New(cfg)
	if err != nil {
		fatal(logger, "configuring service", err)
	}
	svc.Obs().Gauge("stemsd_build_info",
		"Build metadata; the value is always 1.",
		func() float64 { return 1 },
		obs.L("version", version), obs.L("revision", revision))

	notifiers := notify.NewSet(svc.Obs(), logger)
	for _, n := range set.Notifiers {
		var target notify.Notifier
		switch n.Type {
		case "webhook":
			target = notify.NewWebhook(n.Name, notify.WebhookConfig{
				URL:      n.URL,
				Attempts: n.Attempts,
				Backoff:  time.Duration(n.Backoff),
				Timeout:  time.Duration(n.Timeout),
			})
		case "log":
			target = notify.NewLog(n.Name, logger)
		}
		if err := notifiers.Register(target, n.AllJobs); err != nil {
			fatal(logger, "registering notifier", err)
		}
		logger.Info("notifier registered", "name", n.Name, "type", n.Type)
	}

	scheduler, err := sched.New(sched.Config{
		Submit: func(spec enc.JobSpec) (string, error) {
			j, err := svc.Submit(spec)
			if err != nil {
				return "", err
			}
			return j.ID, nil
		},
		Validate:    service.Validate,
		HasNotifier: notifiers.Has,
		StatePath:   set.ScheduleState,
		Logger:      logger,
		Obs:         svc.Obs(),
	})
	if err != nil {
		fatal(logger, "starting scheduler", err)
	}
	for _, spec := range set.Schedules {
		st, err := scheduler.Add(spec)
		if err != nil {
			fatal(logger, "registering schedule", err)
		}
		logger.Info("schedule registered", "name", st.Name, "cron", st.Cron, "next_fire", st.NextFire)
	}
	svc.OnJobDone(func(st enc.JobStatus) {
		name, names, _ := scheduler.JobCompleted(st)
		notifiers.Send(names, enc.NotificationFromStatus(st, name))
	})
	svc.AddMetricsHook(func(m *enc.Metrics) {
		sm := scheduler.Metrics()
		m.Sched = &sm
		nm := notifiers.Metrics()
		m.Notify = &nm
	})

	srvOpts := []server.Option{server.WithLogger(logger), server.WithScheduler(scheduler)}
	if set.Pprof {
		srvOpts = append(srvOpts, server.WithPprof())
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{Addr: set.Addr, Handler: server.New(svc, srvOpts...)}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", set.Addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		fatal(logger, "serve", err)
	case sig := <-sigc:
		logger.Info("draining: completing queued and in-flight jobs; signal again to cancel them", "signal", sig.String())
	}

	// A second signal hard-cancels outstanding jobs; Drain below then
	// finishes almost immediately as workers observe their contexts.
	go func() {
		sig := <-sigc
		logger.Info("cancelling outstanding jobs", "signal", sig.String())
		svc.Abort()
	}()

	// Order matters: stop firing new jobs, land the in-flight ones (whose
	// completion hooks run on the finishing goroutine, so Drain returning
	// means every notification was handed to the set), flush deliveries,
	// then close the store.
	scheduler.Stop()
	svc.Drain()
	notifiers.Close()
	if cfg.Store != nil {
		cfg.Store.Close() //nolint:errcheck // drained: no writers left
	}

	ctx, cancel := context.WithTimeout(context.Background(), set.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("shutdown", "err", err)
	}
	<-errc // ListenAndServe has returned http.ErrServerClosed
	logger.Info("drained, exiting")
}

// buildVersion extracts the module version and VCS revision stamped by
// the Go toolchain.
func buildVersion() (version, revision string) {
	version, revision = "devel", "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return version, revision
	}
	if info.Main.Version != "" {
		version = info.Main.Version
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
			if len(revision) > 12 {
				revision = revision[:12]
			}
		}
	}
	return version, revision
}

// newLogger builds the process logger from the -log-level/-log-format
// flags. Logs go to stderr, like the stdlib logger they replace.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
