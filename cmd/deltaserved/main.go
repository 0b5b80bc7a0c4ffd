// Command deltaserved runs the Δ-coloring HTTP service: a bounded worker
// pool over the machine-checked pipeline with a result cache, async jobs,
// and Prometheus metrics.
//
// Usage:
//
//	deltaserved [-addr :8090] [-workers 4] [-queue 64] [-cache 256]
//	            [-timeout 30s] [-max-timeout 5m] [-drain 30s]
//	            [-max-graphs 16] [-mutation-queue 32]
//	            [-data-dir DIR] [-fsync always|interval|off] [-checkpoint-every 64]
//	            [-graph-dir DIR]
//	            [-shards 16] [-workers-addrs URL1,URL2,...]
//
// With -graph-dir, color and graph-create requests may name operator-staged
// graph files (text or binary format) through their "file" source; paths
// are confined to the directory.
//
// With -workers-addrs, sharded ?shards= color requests fan their cross-cut
// LOCAL rounds out to the listed worker instances over one POST
// /v1/shard/stream per run and instance (each instance serves the endpoint
// itself, so plain deltaserved processes form the cluster); without it,
// shards run in-process. -shards caps the per-request shard count.
//
// With -data-dir, every dynamic graph is durable: mutation batches are
// written to a per-graph WAL before they are acknowledged, checkpoints bound
// replay, startup recovers whatever the last process left behind (readiness
// gated until done), and a clean shutdown checkpoints every store so the
// next start replays nothing.
//
// Endpoints: POST /v1/color, GET /v1/jobs/{id}, the dynamic-graph surface
// under /v1/graphs (create/list/get/delete, POST {id}/mutations,
// GET {id}/coloring), GET /healthz, GET /livez, GET /readyz, GET /metrics.
// See README.md ("Running the service") for request examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"deltacoloring/internal/durable"
	"deltacoloring/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "deltaserved:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("deltaserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	workers := fs.Int("workers", 4, "worker pool size")
	queue := fs.Int("queue", 64, "job queue depth (full queue answers 429)")
	cache := fs.Int("cache", 256, "result cache entries")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-job timeout")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "cap on request-supplied timeouts")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight jobs")
	maxGraphs := fs.Int("max-graphs", 16, "cap on live dynamic graphs (creation past it answers 409)")
	mutQueue := fs.Int("mutation-queue", 32, "per-graph mutation queue depth (full queue answers 429)")
	dataDir := fs.String("data-dir", "", "durable state directory (empty: in-memory graphs only)")
	graphDir := fs.String("graph-dir", "", "directory of staged graph files served by the \"file\" request source (empty: disabled)")
	fsyncFlag := fs.String("fsync", "always", "WAL flush policy: always, interval, or off")
	ckptEvery := fs.Int("checkpoint-every", 64, "checkpoint a durable graph after this many batches (negative disables)")
	maxShards := fs.Int("shards", 16, "cap on per-request ?shards= shard counts")
	workersAddrs := fs.String("workers-addrs", "", "comma-separated worker base URLs for sharded runs (empty: shards run in-process)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fsync, err := durable.ParseFsyncPolicy(*fsyncFlag)
	if err != nil {
		return err
	}
	var shardAddrs []string
	for _, a := range strings.Split(*workersAddrs, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		u, err := url.Parse(a)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("bad -workers-addrs entry %q (want e.g. http://10.0.0.2:8090)", a)
		}
		shardAddrs = append(shardAddrs, strings.TrimRight(a, "/"))
	}

	svc := service.New(service.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheSize:          *cache,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		MaxGraphs:          *maxGraphs,
		MutationQueueDepth: *mutQueue,
		DataDir:            *dataDir,
		GraphDir:           *graphDir,
		Fsync:              fsync,
		CheckpointEvery:    *ckptEvery,
		MaxShards:          *maxShards,
		ShardAddrs:         shardAddrs,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		durability := "in-memory graphs"
		if *dataDir != "" {
			durability = fmt.Sprintf("durable graphs in %s (fsync=%s)", *dataDir, fsync)
		}
		if len(shardAddrs) > 0 {
			log.Printf("deltaserved: sharded runs fan out to %d workers: %s", len(shardAddrs), strings.Join(shardAddrs, ", "))
		}
		log.Printf("deltaserved: listening on %s (%d workers, queue %d, cache %d, %s)",
			*addr, *workers, *queue, *cache, durability)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("deltaserved: %v, draining (budget %v)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the job queue.
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("deltaserved: HTTP shutdown: %v", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	log.Printf("deltaserved: drained cleanly")
	return nil
}
