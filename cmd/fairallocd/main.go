// Command fairallocd is the fair-allocation daemon: it loads a
// topology (the node layout of a JSON network spec or a builtin
// scenario), starts the batched serving engine of internal/serve, and
// exposes flow registration and share lookup over HTTP/JSON.
//
// Usage:
//
//	fairallocd -scenario figure6 -addr :8080
//	fairallocd -spec network.json -window 2ms -rate 500 -burst 100
//
// API:
//
//	POST   /v1/flows       {"id":"F1","weight":1,"path":["A","B","C"]}
//	DELETE /v1/flows/{id}
//	GET    /v1/shares      all published shares
//	GET    /v1/shares/{id} one flow's share + shard epoch
//	GET    /v1/stats       engine counters
//	GET    /v1/healthz
//
// Registration returns once the flow's batch commits, so the share in
// the response is already readable. SIGTERM/SIGINT drain gracefully:
// in-flight HTTP requests finish, queued churn commits, then the
// process exits.
//
// With -data-dir the daemon is durable: every committed batch is
// write-ahead logged (fsync policy via -fsync) before clients are
// acked, and on boot the flow set is recovered from the snapshot + WAL
// tail. The HTTP listener binds immediately but answers 503 until
// recovery completes, so load balancers see the port without reading
// stale state.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"e2efair"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/scenario"
	"e2efair/internal/serve"
	"e2efair/internal/topology"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], os.Stdout, nil, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "fairallocd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal arrives and the
// drain completes. If ready is non-nil it receives the bound listen
// address once the server is accepting — the in-process test hook.
func run(args []string, out io.Writer, ready chan<- string, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("fairallocd", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path to a JSON network spec (nodes are used; flows arrive over HTTP)")
	scenarioName := fs.String("scenario", "", fmt.Sprintf("builtin scenario %v", e2efair.BuiltinNames()))
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	window := fs.Duration("window", 0, "batch window shards hold open to coalesce churn (0 = drain-greedy)")
	maxBatch := fs.Int("max-batch", 0, "max events per Instance rebuild (0 = unlimited)")
	workers := fs.Int("workers", 0, "LP workers per shard allocator (0 = sequential)")
	cacheCap := fs.Int("cache-cap", 0, "group-share cache entries per shard (0 = default)")
	maxFlows := fs.Int("max-flows", 0, "admission: max live flows per shard (0 = unlimited)")
	minShare := fs.Float64("min-share", 0, "admission: reject registers pushing the basic share below this")
	rate := fs.Float64("rate", 0, "edge token bucket: churn requests per second (0 = unlimited)")
	burst := fs.Float64("burst", 64, "edge token bucket: burst size")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	dataDir := fs.String("data-dir", "", "durable data directory (WAL + snapshots); empty = volatile")
	fsync := fs.String("fsync", "batch", "WAL fsync policy: always, batch or never")
	snapEvery := fs.Int("snapshot-every", 4096, "events between durable snapshots per shard (0 = only on clean shutdown)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	topo, err := loadTopology(*specPath, *scenarioName)
	if err != nil {
		return err
	}
	policy, err := durable.ParseFsyncPolicy(*fsync)
	if err != nil {
		return err
	}

	d := &daemon{
		topo:   topo,
		bucket: serve.NewTokenBucket(*rate, *burst),
	}

	// Bind and serve before recovery: until the engine lands in d.eng
	// every handler answers 503, so a restarting daemon is visible (and
	// health-checkable) while it replays its log.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           d.mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(out, "fairallocd: %d nodes, listening on %s\n", topo.NumNodes(), ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	cfg := serve.Config{
		Topo:     topo,
		Window:   *window,
		MaxBatch: *maxBatch,
		Workers:  *workers,
		CacheCap: *cacheCap,
		MaxFlows: *maxFlows,
		MinShare: *minShare,
	}
	if *dataDir != "" {
		store, err := durable.Open(*dataDir, durable.Options{Policy: policy, SnapshotEvery: *snapEvery})
		if err != nil {
			srv.Close()
			return err
		}
		cfg.Durable = store
	}
	eng, err := serve.New(cfg)
	if err != nil {
		srv.Close()
		return err
	}
	if *dataDir != "" {
		rec := eng.Recovery()
		fmt.Fprintf(out, "fairallocd: durable in %s (fsync=%s): recovered %d flows, replayed %d WAL batches\n",
			*dataDir, policy, rec.Flows, rec.Batches)
	}
	d.eng.Store(eng)
	fmt.Fprintf(out, "fairallocd: %d shards ready\n", eng.NumShards())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		eng.Close()
		return err
	case sig := <-sigs:
		fmt.Fprintf(out, "fairallocd: %v, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	// In-flight handlers are done; drain the batch queues, stop the
	// shard workers, and (when durable) write the final snapshots.
	eng.Close()
	st := eng.Stats()
	fmt.Fprintf(out, "fairallocd: drained (%d events in %d batches, %d rebuilds)\n",
		st.Events, st.Batches, st.Rebuilds)
	return shutdownErr
}

// loadTopology builds the radio topology from the node layout of a
// spec file or builtin scenario; any flows in the spec are ignored
// (they arrive over HTTP).
func loadTopology(specPath, scenarioName string) (*topology.Topology, error) {
	spec, err := e2efair.LoadSpec(specPath, scenarioName)
	if err != nil {
		return nil, err
	}
	return scenario.Topology(spec)
}

// daemon holds the HTTP layer's state: the engine (atomically set once
// recovery completes — nil means "still recovering" and handlers
// answer 503), the name-keyed topology for path resolution, and the
// edge rate limiter.
type daemon struct {
	topo   *topology.Topology
	eng    atomic.Pointer[serve.Engine]
	bucket *serve.TokenBucket
}

// engine returns the serving engine, or writes 503 and returns nil
// while recovery is still replaying the durable state.
func (d *daemon) engine(w http.ResponseWriter) *serve.Engine {
	eng := d.eng.Load()
	if eng == nil {
		writeError(w, http.StatusServiceUnavailable, "recovering: durable state is replaying")
	}
	return eng
}

func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/flows", d.handleRegister)
	mux.HandleFunc("DELETE /v1/flows/{id}", d.handleRemove)
	mux.HandleFunc("GET /v1/shares", d.handleShares)
	mux.HandleFunc("GET /v1/shares/{id}", d.handleShare)
	mux.HandleFunc("GET /v1/stats", d.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if d.eng.Load() == nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// flowRequest is the POST /v1/flows body: the node-name form of
// serve.FlowSpec. Weight defaults to 1.
type flowRequest struct {
	ID     string   `json:"id"`
	Weight float64  `json:"weight,omitempty"`
	Path   []string `json:"path"`
}

type shareResponse struct {
	ID    string  `json:"id"`
	Share float64 `json:"share"`
	Epoch uint64  `json:"epoch"`
}

func (d *daemon) handleRegister(w http.ResponseWriter, r *http.Request) {
	eng := d.engine(w)
	if eng == nil {
		return
	}
	if !d.bucket.Allow(1) {
		writeError(w, http.StatusTooManyRequests, "churn rate limit exceeded")
		return
	}
	var req flowRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, "flow id required")
		return
	}
	if req.Weight == 0 {
		req.Weight = 1
	}
	path := make([]topology.NodeID, len(req.Path))
	for i, name := range req.Path {
		id, err := d.topo.Lookup(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		path[i] = id
	}
	// Await the commit or the request context, whichever ends first: a
	// disconnected client stops holding a handler goroutine hostage.
	// The enqueued event still commits in the background — abandoning
	// the wait does not unwind the registration.
	select {
	case err := <-eng.RegisterAsync(serve.FlowSpec{ID: flow.ID(req.ID), Weight: req.Weight, Path: path}):
		if err != nil {
			writeEngineError(w, err)
			return
		}
	case <-r.Context().Done():
		return
	}
	share, epoch, _ := eng.GetShare(flow.ID(req.ID))
	writeJSON(w, http.StatusCreated, shareResponse{ID: req.ID, Share: share, Epoch: epoch})
}

func (d *daemon) handleRemove(w http.ResponseWriter, r *http.Request) {
	eng := d.engine(w)
	if eng == nil {
		return
	}
	if !d.bucket.Allow(1) {
		writeError(w, http.StatusTooManyRequests, "churn rate limit exceeded")
		return
	}
	select {
	case err := <-eng.RemoveAsync(flow.ID(r.PathValue("id"))):
		if err != nil {
			writeEngineError(w, err)
			return
		}
	case <-r.Context().Done():
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *daemon) handleShares(w http.ResponseWriter, _ *http.Request) {
	eng := d.engine(w)
	if eng == nil {
		return
	}
	shares, epoch := eng.Shares()
	out := struct {
		Epoch  uint64             `json:"epoch"`
		Shares map[string]float64 `json:"shares"`
	}{Epoch: epoch, Shares: make(map[string]float64, len(shares))}
	for id, x := range shares {
		out.Shares[string(id)] = x
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *daemon) handleShare(w http.ResponseWriter, r *http.Request) {
	eng := d.engine(w)
	if eng == nil {
		return
	}
	id := r.PathValue("id")
	share, epoch, ok := eng.GetShare(flow.ID(id))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown flow "+id)
		return
	}
	writeJSON(w, http.StatusOK, shareResponse{ID: id, Share: share, Epoch: epoch})
}

func (d *daemon) handleStats(w http.ResponseWriter, _ *http.Request) {
	eng := d.engine(w)
	if eng == nil {
		return
	}
	writeJSON(w, http.StatusOK, eng.Stats())
}

// writeEngineError maps the engine's typed errors onto HTTP statuses.
func writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrBadFlow):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, serve.ErrUnknownFlow):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, serve.ErrDuplicateFlow):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, serve.ErrAdmission):
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrWAL):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
