package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"duet/internal/daemon"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
)

// daemonFlags holds the daemon command's own flags. It also reads
// -backend, -efpgas and -softcpus from the serve base and -repairdelay
// and -domains from faultFlags.
type daemonFlags struct {
	listen   string
	cfg      daemon.Config // -policy -queuecap -maxinflight -timescale
	windowMS float64
	// A nonzero wedge probability installs this seeded fault plan below
	// the backend seam (see internal/faults), so a live daemon can
	// rehearse degraded operation: /healthz flips to degraded/down and
	// /metrics carries the fault counters. A repair delay makes
	// quarantine transient, and domains add correlated rack/power
	// outages.
	plan faults.Plan // -wedgeprob -retries -faultseed
}

func (d *daemonFlags) bind(fs *flag.FlagSet) {
	fs.StringVar(&d.listen, "listen", ":8080", "daemon: HTTP listen address")
	fs.TextVar(&d.cfg.Policy, "policy", sched.FIFO, "daemon: scheduling policy, `fifo|sjf|affinity|hybrid`")
	fs.IntVar(&d.cfg.QueueCap, "queuecap", 0, fmt.Sprintf("daemon: admission-queue bound (0 = default %d)", sched.DefaultQueueCap))
	fs.IntVar(&d.cfg.MaxOutstanding, "maxinflight", 0, "daemon: outstanding-job bound, 503 past it (0 = 4x queuecap)")
	fs.Float64Var(&d.cfg.Timescale, "timescale", 1, "daemon: simulated seconds advanced per wall-clock second")
	fs.Float64Var(&d.windowMS, "windowms", 250, "daemon: telemetry window width in simulated milliseconds")
	fs.Float64Var(&d.plan.WedgeProb, "wedgeprob", 0, "daemon: per-reprogram wedge probability (0 = no fault plan)")
	fs.IntVar(&d.plan.MaxRetries, "retries", 2, "daemon: retry budget for wedge victims (with -wedgeprob)")
	fs.Int64Var(&d.plan.Seed, "faultseed", 1, "daemon: fault-plan seed (with -wedgeprob)")
}

// daemonCmd boots the HTTP ingest server and blocks until SIGINT/SIGTERM
// (graceful drain: stop admitting, finish every in-flight job, flush a
// final stats line) or a listener error.
func daemonCmd(o *options) error {
	cfg := o.daemon.cfg
	cfg.Backend, cfg.EFPGAs, cfg.SoftCPUs = o.serve.Backend, o.serve.EFPGAs, o.serve.SoftCPUs
	cfg.WindowWidth = sim.Time(o.daemon.windowMS * float64(sim.MS))
	if plan := o.daemon.plan; plan.WedgeProb > 0 || o.faults.repairDelay > 0 || strings.TrimSpace(o.faults.domains) != "" {
		doms, err := faults.ParseDomains(o.faults.domains)
		if err != nil {
			return err
		}
		plan.RepairDelay, plan.Domains = o.faults.repairDelay, doms
		cfg.Faults = &plan
	}
	srv, err := daemon.NewServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.daemon.listen)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	go srv.RunTicker(2*time.Millisecond, stop)
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	fmt.Fprintf(os.Stderr, "duetsim daemon: listening on %s (%s backend, %d eFPGAs, policy %s, timescale %g)\n",
		ln.Addr(), cfg.Backend, cfg.EFPGAs, cfg.Policy, cfg.Timescale)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		close(stop)
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "duetsim daemon: %v: draining in-flight jobs\n", s)
	}

	// Drain first (every admitted job retires, sync waiters unblock),
	// then shut the listener down so those responses still go out. A
	// failed end-of-run check is reported once the listener is down.
	drainErr := srv.Drain()
	close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "duetsim daemon: drained; completed %d, failed %d, queue-rejected %d, p50 %v, p99 %v\n",
		st.Completed, st.Failed, st.Rejected, st.P50, st.P99)
	if drainErr != nil {
		return fmt.Errorf("daemon drain: %w", drainErr)
	}
	return nil
}

// loadgenFlags holds the loadgen command's own flags; it also reads
// -seed from the serve base.
type loadgenFlags struct {
	cfg           daemon.LoadgenConfig
	apps, tenants string
}

func (l *loadgenFlags) bind(fs *flag.FlagSet) {
	fs.StringVar(&l.cfg.Target, "target", "http://localhost:8080", "loadgen: daemon base URL")
	fs.StringVar(&l.cfg.Mode, "mode", "closed", "loadgen: closed (lockstep workers) or open (paced arrivals)")
	fs.IntVar(&l.cfg.Concurrency, "concurrency", 8, "loadgen: closed-loop workers / open-loop in-flight cap")
	fs.Float64Var(&l.cfg.RateHz, "rate", 200, "loadgen: open-loop arrival rate in requests/s")
	fs.DurationVar(&l.cfg.Duration, "duration", 5*time.Second, "loadgen: run length")
	fs.IntVar(&l.cfg.Jobs, "requests", 0, "loadgen: total request cap (0 = duration-bound)")
	fs.StringVar(&l.apps, "apps", "", "loadgen: comma-separated app mix (default: the daemon's catalog)")
	fs.StringVar(&l.tenants, "tenants", "", "loadgen: weighted tenant mix, e.g. alpha:3,beta:1")
	fs.DurationVar(&l.cfg.Timeout, "timeout", 30*time.Second, "loadgen: per-request timeout")
}

// loadgenCmd drives a running daemon and prints the final report.
func loadgenCmd(o *options) error {
	cfg := o.loadgen.cfg
	cfg.Seed = o.serve.Seed
	var err error
	if cfg.Tenants, err = daemon.ParseTenants(o.loadgen.tenants); err != nil {
		return err
	}
	if strings.TrimSpace(o.loadgen.apps) != "" {
		cfg.Apps = strings.Split(o.loadgen.apps, ",")
	}
	rep, err := daemon.RunLoadgen(context.Background(), cfg)
	if err != nil {
		return err
	}
	if o.json {
		return emitJSON(struct {
			Loadgen daemon.LoadgenReport `json:"loadgen"`
		}{rep})
	}
	header(fmt.Sprintf("Loadgen: %s loop against %s (%v)", rep.Mode, cfg.Target, rep.Elapsed.Round(time.Millisecond)))
	fmt.Printf("  sent %d: %d completed, %d failed, %d queue-rejected (429), %d unavailable (503), %d errors, %d retried\n",
		rep.Sent, rep.Completed, rep.Failed, rep.Rejected429, rep.Unavailable503, rep.OtherErrors, rep.Retried)
	fmt.Printf("  throughput %.1f jobs/s\n", rep.ThroughputHz)
	if rep.Completed > 0 {
		fmt.Printf("  wall latency mean %v, p50 %v, p95 %v, p99 %v\n",
			rep.WallMean.Round(time.Microsecond), rep.WallP50.Round(time.Microsecond),
			rep.WallP95.Round(time.Microsecond), rep.WallP99.Round(time.Microsecond))
	}
	return nil
}
