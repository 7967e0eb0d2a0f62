package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/serve"
	"e2efair/internal/topology"
)

// engineHost drives an in-process serve.Engine.
type engineHost struct {
	eng *serve.Engine
}

// classify maps an engine error onto an outcome: admission and
// closed/WAL errors are refusals (the daemon answers them 429/503),
// anything else is a failure.
func classify(err error) (outcome, error) {
	switch {
	case err == nil:
		return outOK, nil
	case errors.Is(err, serve.ErrAdmission), errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrWAL):
		return outRefused, err
	default:
		return outFailed, err
	}
}

func (h *engineHost) register(s serve.FlowSpec) (outcome, error) {
	return classify(h.eng.Register(s))
}

func (h *engineHost) remove(id flow.ID) (outcome, error) { return classify(h.eng.Remove(id)) }

func (h *engineHost) read(id flow.ID) (outcome, error) {
	if _, _, ok := h.eng.GetShare(id); !ok {
		return outFailed, fmt.Errorf("flow %s not readable", id)
	}
	return outOK, nil
}

// httpHost drives fairallocd over loopback HTTP with at most conns
// keep-alive connections.
type httpHost struct {
	base   string
	client *http.Client
	names  []string // node names by NodeID

	mu      sync.Mutex
	refused map[int]int64 // refusal counts by HTTP status
}

func newHTTPHost(addr string, conns int, topo *topology.Topology) *httpHost {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &httpHost{
		base:    "http://" + addr,
		client:  &http.Client{Transport: tr, Timeout: 10 * time.Second},
		names:   topo.Names(),
		refused: make(map[int]int64),
	}
}

func (h *httpHost) close() { h.client.CloseIdleConnections() }

// do sends one request and drains the response; want is the success
// status.
func (h *httpHost) do(method, path string, body []byte, want int) (outcome, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return outFailed, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return outFailed, err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == want:
		return outOK, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		h.mu.Lock()
		h.refused[resp.StatusCode]++
		h.mu.Unlock()
		return outRefused, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	default:
		return outFailed, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
}

func (h *httpHost) refusals(status int) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.refused[status]
}

func (h *httpHost) register(s serve.FlowSpec) (outcome, error) {
	path := make([]string, len(s.Path))
	for i, n := range s.Path {
		path[i] = h.names[n]
	}
	body, err := json.Marshal(struct {
		ID     string   `json:"id"`
		Weight float64  `json:"weight"`
		Path   []string `json:"path"`
	}{string(s.ID), s.Weight, path})
	if err != nil {
		return outFailed, err
	}
	return h.do(http.MethodPost, "/v1/flows", body, http.StatusCreated)
}

func (h *httpHost) remove(id flow.ID) (outcome, error) {
	return h.do(http.MethodDelete, "/v1/flows/"+string(id), nil, http.StatusNoContent)
}

func (h *httpHost) read(id flow.ID) (outcome, error) {
	return h.do(http.MethodGet, "/v1/shares/"+string(id), nil, http.StatusOK)
}

// getJSON decodes a GET response body into v.
func (h *httpHost) getJSON(path string, v any) error {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// shares fetches every published share; JSON float encoding round-trips
// exactly, so the values compare bit for bit.
func (h *httpHost) shares() (core.FlowAllocation, error) {
	var out struct {
		Shares map[string]float64 `json:"shares"`
	}
	if err := h.getJSON("/v1/shares", &out); err != nil {
		return nil, err
	}
	alloc := make(core.FlowAllocation, len(out.Shares))
	for id, x := range out.Shares {
		alloc[flow.ID(id)] = x
	}
	return alloc, nil
}

func (h *httpHost) stats() (serve.Stats, error) {
	var st serve.Stats
	err := h.getJSON("/v1/stats", &st)
	return st, err
}

// daemon is one fairallocd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{}
}

// startDaemon execs fairallocd and returns once it printed its listen
// address. The child is killed if this process dies first.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fairallocd: %w", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		// Reap only after stdout is drained, as exec.Cmd requires.
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("fairallocd exited before listening: %s", strings.TrimSpace(d.stderr.String()))
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("fairallocd did not print its listen address within 30s")
	}
}

// waitHealthy polls /v1/healthz until it answers 200.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("fairallocd exited: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		resp, err := c.Get("http://" + d.addr + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("fairallocd not healthy within %v", timeout)
}

// kill SIGKILLs the daemon and waits until it is reaped.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// stop asks the daemon to drain (SIGTERM) and waits; it SIGKILLs after
// the timeout.
func (d *daemon) stop(timeout time.Duration) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(timeout):
		d.kill()
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)) }
