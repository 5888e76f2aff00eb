package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/server"
	"repro/internal/server/store"
)

// node is one in-process server on a loopback listener.
type node struct {
	srv   *server.Server
	store *store.Store
	hs    *http.Server
	url   string
	done  chan struct{}
	// scans counts POST /v2/internal/scan requests this node served —
	// how the benchmark proves a cluster job really dispatched shards.
	scans atomic.Int64
}

func startNode(dir string, cfg server.Config) (*node, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{store: st, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	if cfg.Cluster.JoinURL != "" {
		cfg.Cluster.AdvertiseURL = n.url
	}
	n.srv = server.New(st, cfg)
	h := n.srv.Handler()
	n.hs = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v2/internal/scan" {
				n.scans.Add(1)
			}
			h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln)
	}()
	n.srv.Join()
	return n, nil
}

func (n *node) close() {
	_ = n.hs.Close()
	<-n.done
	n.srv.Close()
}

// env is one workload's running topology: a front node (the single
// server, or the coordinator) plus any joined workers, and the client
// every request goes through.
type env struct {
	front   *node
	workers []*node
	client  *http.Client
	dir     string
}

// startEnv builds the topology of w under dir. Workers join through the
// heartbeat agent, exactly as wmserver -join does, and startEnv returns
// only once the coordinator counts every one of them live.
func startEnv(w workload, dir string) (*env, error) {
	// One connection carries the closed-loop client's jobs; the spare
	// one serves /metrics scrapes, which never overlap a timed job.
	e := &env{dir: dir, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}}
	var cfg server.Config
	if w.workers > 0 {
		cfg.Cluster.Coordinator = true
	}
	front, err := startNode(filepath.Join(dir, "front"), cfg)
	if err != nil {
		return nil, err
	}
	e.front = front
	for i := 0; i < w.workers; i++ {
		wn, err := startNode(filepath.Join(dir, fmt.Sprintf("worker%d", i+1)), server.Config{
			Workers: 1,
			Cluster: server.ClusterConfig{
				JoinURL:  front.url,
				WorkerID: fmt.Sprintf("w%d", i+1),
				Capacity: 1,
			},
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.workers = append(e.workers, wn)
	}
	if w.workers > 0 {
		coord := front.srv.Coordinator()
		deadline := time.Now().Add(20 * time.Second)
		for coord.LiveWorkers() < w.workers {
			if time.Now().After(deadline) {
				e.close()
				return nil, fmt.Errorf("only %d of %d workers joined", coord.LiveWorkers(), w.workers)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return e, nil
}

func (e *env) close() {
	for _, wn := range e.workers {
		wn.close()
	}
	if e.front != nil {
		e.front.close()
	}
	e.client.CloseIdleConnections()
}

// workerScans sums the shard RPCs the workers have served.
func (e *env) workerScans() int64 {
	var n int64
	for _, wn := range e.workers {
		n += wn.scans.Load()
	}
	return n
}

// nodes lists every server of the topology, front first.
func (e *env) nodes() []*node { return append([]*node{e.front}, e.workers...) }

// do sends one request to the front node and reads the whole response
// body.
func (e *env) do(ctx context.Context, method, path string, body []byte, header http.Header) (int, []byte, error) {
	return e.doAt(ctx, e.front, method, path, body, header)
}

func (e *env) doAt(ctx context.Context, n *node, method, path string, body []byte, header http.Header) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, n.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", api.ContentTypeJSON)
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// register watermarks one relation over POST /v2/watermark — how an
// owner's certificate enters the catalog.
func (e *env) register(ctx context.Context, body []byte) (*api.WatermarkResponse, error) {
	status, b, err := e.do(ctx, http.MethodPost, "/v2/watermark", body, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("register: HTTP %d: %.200s", status, b)
	}
	var resp api.WatermarkResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// scrape reads one node's /metrics and sums each family over its
// labels. The scan and hash counters are process-wide, so any node
// reports the whole process's.
func (e *env) scrape(ctx context.Context, n *node) (map[string]float64, error) {
	status, b, err := e.doAt(ctx, n, http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in
// MiB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the VmHWM high-water mark at the current RSS, so
// the timed phase's peak is not the set-up's. Not every kernel allows
// it; the peak then covers the whole process.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}
