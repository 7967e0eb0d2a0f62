package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/serve"
	"e2efair/internal/topology"
)

// server is a running host with its lifecycle: the shares and counters
// it publishes, its peak memory, and a crash followed by recovery.
type server interface {
	host
	shares() (core.FlowAllocation, error)
	stats() (serve.Stats, error)
	peakRSSMB() (float64, error)
	// crashRecover kills the host without a clean shutdown and brings
	// it back, returning the time until it serves again.
	crashRecover() (time.Duration, error)
	close()
}

// engineServer hosts a volatile in-process serve.Engine. Its recovery
// is what a volatile deployment does after a crash: a fresh engine and
// the live flows registered again in their registration order.
type engineServer struct {
	engineHost
	cfg  serve.Config
	live []*flow.Flow
}

func startEngine(topo *topology.Topology, background []*flow.Flow) (*engineServer, error) {
	s := &engineServer{cfg: serve.Config{Topo: topo, Workers: 1}, live: background}
	return s, s.boot()
}

func (s *engineServer) boot() error {
	eng, err := serve.New(s.cfg)
	if err != nil {
		return err
	}
	s.eng = eng
	if err := registerInOrder(eng, s.live); err != nil {
		eng.Close()
		return err
	}
	return nil
}

// registerInOrder enqueues every flow in list order from one goroutine,
// so each shard commits its flows in that order, then awaits them all.
func registerInOrder(eng *serve.Engine, flows []*flow.Flow) error {
	dones := make([]<-chan error, len(flows))
	for i, f := range flows {
		dones[i] = eng.RegisterAsync(specOf(f))
	}
	for i, d := range dones {
		if err := <-d; err != nil {
			return fmt.Errorf("register %s: %w", flows[i].ID(), err)
		}
	}
	return nil
}

func (s *engineServer) shares() (core.FlowAllocation, error) {
	sh, _ := s.eng.Shares()
	return sh, nil
}

func (s *engineServer) stats() (serve.Stats, error) { return s.eng.Stats(), nil }

func (s *engineServer) peakRSSMB() (float64, error) { return peakRSSMB("self") }

func (s *engineServer) crashRecover() (time.Duration, error) {
	s.eng.Close()
	t0 := time.Now()
	err := s.boot()
	return time.Since(t0), err
}

func (s *engineServer) close() { s.eng.Close() }

// daemonServer hosts fairallocd as a subprocess on loopback. Durable,
// it logs with batch fsync and no periodic snapshots, so recovery
// replays the whole WAL.
type daemonServer struct {
	*httpHost
	proc    *daemon
	bin     string
	args    []string
	dataDir string
	conns   int
	topo    *topology.Topology
}

func startDaemonServer(bin, dir string, topo *topology.Topology, background []*flow.Flow, conns int, durable bool) (*daemonServer, error) {
	spec, err := json.Marshal(networkSpec(topo))
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(dir, "network.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		return nil, err
	}
	s := &daemonServer{bin: bin, conns: conns, topo: topo, args: []string{"-spec", specPath}}
	if durable {
		s.dataDir = filepath.Join(dir, "data")
		s.args = append(s.args, "-data-dir", s.dataDir, "-fsync", "batch", "-snapshot-every", "0")
	}
	if err := s.boot(); err != nil {
		return nil, err
	}
	if err := s.registerBackground(background); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *daemonServer) boot() error {
	proc, err := startDaemon(s.bin, s.args)
	if err != nil {
		return err
	}
	if err := proc.waitHealthy(60 * time.Second); err != nil {
		proc.kill()
		return err
	}
	s.proc = proc
	s.httpHost = newHTTPHost(proc.addr, s.conns, s.topo)
	return nil
}

// registerBackground registers the flows over at most conns
// connections, each radio component's flows in list order on one
// connection, so every shard commits them in list order.
func (s *daemonServer) registerBackground(flows []*flow.Flow) error {
	var cs topology.RadioComponentSet
	s.topo.AppendRadioComponents(&cs)
	comp := make(map[topology.NodeID]int)
	for c := 0; c < cs.Len(); c++ {
		for _, n := range cs.Component(c) {
			comp[n] = c
		}
	}
	lanes := make([][]*flow.Flow, s.conns)
	for _, f := range flows {
		c := comp[f.Path()[0]] % s.conns
		lanes[c] = append(lanes[c], f)
	}
	errs := make([]error, s.conns)
	var wg sync.WaitGroup
	for i, lane := range lanes {
		wg.Add(1)
		go func(i int, lane []*flow.Flow) {
			defer wg.Done()
			for _, f := range lane {
				if out, err := s.register(specOf(f)); out != outOK {
					errs[i] = fmt.Errorf("register background %s: %v", f.ID(), err)
					return
				}
			}
		}(i, lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *daemonServer) peakRSSMB() (float64, error) { return s.proc.peakRSSMB() }

// crashRecover SIGKILLs the daemon and restarts it on the same data
// directory, timing exec until /v1/healthz answers 200.
func (s *daemonServer) crashRecover() (time.Duration, error) {
	s.httpHost.close()
	s.proc.kill()
	t0 := time.Now()
	err := s.boot()
	return time.Since(t0), err
}

func (s *daemonServer) close() {
	s.httpHost.close()
	s.proc.stop(10 * time.Second)
}

// expectedShares is the correctness oracle: a fresh
// core.Allocator.Centralized over the live flows in registration order.
func expectedShares(topo *topology.Topology, live []*flow.Flow) (core.FlowAllocation, error) {
	set, err := flow.NewSet(live...)
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		return nil, err
	}
	return core.NewAllocatorWorkers(1).Centralized(inst, core.CentralizedOptions{Refine: true})
}

// sameShares reports whether two allocations hold the same flows with
// bit-equal shares.
func sameShares(got, want core.FlowAllocation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d flows published, want %d", len(got), len(want))
	}
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		g, ok := got[flow.ID(id)]
		if !ok {
			return fmt.Errorf("flow %s missing", id)
		}
		if w := want[flow.ID(id)]; math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("flow %s share %v, want %v", id, g, w)
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// openStore opens a durable store with the daemon's options.
func openStore(dir string) (*durable.Store, error) {
	return durable.Open(dir, durable.Options{Policy: durable.FsyncBatch})
}
