package main

import (
	"context"
	"encoding/json"
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
	"time"

	"hslb/internal/neos"
	"hslb/internal/router"
)

const (
	numShards = 3
	replicas  = 2
	// clients is the closed loop's size: every caller of the service blocks
	// on its reply, and the reference host has two CPUs.
	clients = 2
	// peerBudget is what a shard may spend asking its peers before it solves
	// a model itself. The server's default, 150 ms, is not always enough on
	// two CPUs that two solves keep busy: about one fleet-mixed run in
	// twenty-five then solved one warm request again, which the benchmark
	// counts as a failed operation. A workload must not fail by timing.
	peerBudget = "2s"
)

// children is every process the benchmark has started and not yet reaped,
// so that one sweep can kill them on any exit path, a signal included.
var children struct {
	mu   sync.Mutex
	cmds map[*exec.Cmd]struct{}
}

func track(cmd *exec.Cmd) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.cmds == nil {
		children.cmds = map[*exec.Cmd]struct{}{}
	}
	children.cmds[cmd] = struct{}{}
}

// reap kills a child and waits until it has ended. The stores are scratch,
// so there is nothing a graceful drain would save.
func reap(cmd *exec.Cmd) {
	children.mu.Lock()
	_, live := children.cmds[cmd]
	delete(children.cmds, cmd)
	children.mu.Unlock()
	if live {
		_ = cmd.Process.Kill() // fails only when the child is already gone
		_ = cmd.Wait()         // the kill makes Wait report an error by design
	}
}

func reapAll() {
	children.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(children.cmds))
	for c := range children.cmds {
		cmds = append(cmds, c)
	}
	children.mu.Unlock()
	for _, c := range cmds {
		reap(c)
	}
}

// buildBinaries compiles the two programs under test into dir. The Go build
// cache makes every build after the first a relink at most.
func buildBinaries(ctx context.Context, dir string) (time.Duration, error) {
	if _, err := os.Stat(filepath.Join("cmd", "hslbserver")); err != nil {
		return 0, fmt.Errorf("run the benchmark from the repository root: %w", err)
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator), "./cmd/hslbserver", "./cmd/hslbrouter")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build: %w", err)
	}
	return time.Since(t0), nil
}

// fleet is one router in front of three shards, all real processes.
type fleet struct {
	routerURL string
	shardURLs []string
	procs     []*exec.Cmd // router first, then shards in shardURLs order
	ring      *router.Ring
	http      *http.Client
	dir       string
}

// startFleet launches the shards and the router on fixed loopback ports from
// basePort — shard identity is its URL, so fixed ports make rendezvous order
// and the spread of keys over shards the same on every run — and returns
// once every process answers /ready and the router sees every shard healthy.
// Stores and logs go under dir.
func startFleet(ctx context.Context, binDir, dir string, basePort int) (f *fleet, err error) {
	for p := basePort; p <= basePort+numShards; p++ {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
		if err != nil {
			return nil, fmt.Errorf("port %d is busy (is another benchmark running? choose another -base-port): %w", p, err)
		}
		l.Close()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f = &fleet{
		routerURL: fmt.Sprintf("http://127.0.0.1:%d", basePort),
		dir:       dir,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			IdleConnTimeout:     time.Minute,
		}},
	}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	var ringShards []*router.Shard
	for i := 1; i <= numShards; i++ {
		u := fmt.Sprintf("http://127.0.0.1:%d", basePort+i)
		f.shardURLs = append(f.shardURLs, u)
		ringShards = append(ringShards, &router.Shard{ID: u, URL: u})
	}
	f.ring = router.NewRing(ringShards, 0)

	spawn := func(name, bin string, args ...string) error {
		logFile, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			return err
		}
		defer logFile.Close() // the child holds its own descriptor
		cmd := exec.Command(filepath.Join(binDir, bin), args...)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start %s: %w", name, err)
		}
		track(cmd)
		f.procs = append(f.procs, cmd)
		return nil
	}
	if err := spawn("router", "hslbrouter", "-addr", strings.TrimPrefix(f.routerURL, "http://"),
		"-shards", strings.Join(f.shardURLs, ",")); err != nil {
		return f, err
	}
	for i, u := range f.shardURLs {
		var peers []string
		for j, p := range f.shardURLs {
			if j != i {
				peers = append(peers, p)
			}
		}
		if err := spawn(fmt.Sprintf("shard%d", i), "hslbserver",
			"-addr", strings.TrimPrefix(u, "http://"),
			"-concurrency", "1", "-cache-size", "4096",
			"-cache-persist", "-store-dir", filepath.Join(dir, fmt.Sprintf("store%d", i)),
			"-peers", strings.Join(peers, ","), "-self-url", u, "-peer-budget", peerBudget,
			"-replicate", strconv.Itoa(replicas), "-anti-entropy", "-1s"); err != nil {
			return f, err
		}
	}

	for _, u := range append([]string{f.routerURL}, f.shardURLs...) {
		if err := f.waitFor(ctx, u+"/ready", func(resp *http.Response) bool { return resp.StatusCode == http.StatusOK }); err != nil {
			return f, err
		}
	}
	allHealthy := func(resp *http.Response) bool {
		var m router.Metrics
		if json.NewDecoder(resp.Body).Decode(&m) != nil || len(m.Shards) != numShards {
			return false
		}
		for _, s := range m.Shards {
			if !s.Healthy {
				return false
			}
		}
		return true
	}
	if err := f.waitFor(ctx, f.routerURL+"/metrics", allHealthy); err != nil {
		return f, err
	}
	return f, nil
}

// waitFor polls url until ok accepts a response, the context ends, or a
// process of the fleet has died.
func (f *fleet) waitFor(ctx context.Context, url string, ok func(*http.Response) bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := f.http.Get(url)
		if err == nil {
			good := ok(resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if good {
				return nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready (logs in %s)", url, f.dir)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop kills every process of the fleet, waits for each, and removes the
// stores; the logs stay.
func (f *fleet) stop() {
	for _, c := range f.procs {
		reap(c)
	}
	f.http.CloseIdleConnections()
	for i := range f.shardURLs {
		os.RemoveAll(filepath.Join(f.dir, fmt.Sprintf("store%d", i)))
	}
}

// home and nonOwner are the first and the last shard of the key's rendezvous
// order. With three shards and two replicas the last shard is the one that
// holds neither the solve nor its replica, so asking it forces a peer
// consult.
func (f *fleet) home(key string) string     { return f.ring.Order(key)[0].URL }
func (f *fleet) nonOwner(key string) string { return f.ring.Order(key)[numShards-1].URL }

// fleetUnits names every per-layer metric read off the fleet's /metrics and
// /proc, with its unit. A scrape holds all of them, zero where a process does
// not report the section.
var fleetUnits = map[string]string{
	"neos.solver_invocations": "count", "neos.solver_busy_s": "s",
	"neos.cache_hits": "count", "neos.cache_misses": "count",
	"neos.peer_hits": "count", "neos.peer_misses": "count", "neos.peer_budget_exhausted": "count",
	"neos.repl_pushes": "count", "neos.repl_push_retries": "count", "neos.repl_dropped": "count", "neos.repl_ingested": "count",
	"neos.shed": "count", "resultstore.bytes": "B",
	"router.routed": "count", "router.failovers": "count", "router.spills": "count",
	"proc.cpu_s.router": "s", "proc.cpu_s.shards": "s", "proc.rss_mb.router": "MB", "proc.rss_mb.shards": "MB",
}

// Gauges among the scraped values: a section reports their final reading,
// where it reports the change of every other. replQueue and replicating are
// scraped for settle only.
var gauges = map[string]bool{"proc.rss_mb.router": true, "proc.rss_mb.shards": true, replQueue: true, replicating: true}

const (
	replQueue   = "replication queue depth"
	replicating = "shards replicating"
)

func (f *fleet) getJSON(url string, v interface{}) error {
	resp, err := f.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the router's and every shard's /metrics and /proc entry and
// returns the values by per-layer metric name, summed over the shards.
func (f *fleet) scrape() (map[string]float64, error) {
	c := map[string]float64{}
	for name := range fleetUnits {
		c[name] = 0
	}
	var rm router.Metrics
	if err := f.getJSON(f.routerURL+"/metrics", &rm); err != nil {
		return nil, err
	}
	c["router.routed"], c["router.failovers"], c["router.spills"] = float64(rm.Routed), float64(rm.Failovers), float64(rm.Spills)
	for _, u := range f.shardURLs {
		var m neos.Metrics
		if err := f.getJSON(u+"/metrics", &m); err != nil {
			return nil, err
		}
		c["neos.solver_invocations"] += float64(m.Solves.Count)
		c["neos.solver_busy_s"] += m.Solves.LatencySumSeconds
		c["neos.cache_hits"] += float64(m.Cache.Hits)
		c["neos.cache_misses"] += float64(m.Cache.Misses)
		if p := m.Peer; p != nil {
			c["neos.peer_hits"] += float64(p.Hits)
			c["neos.peer_misses"] += float64(p.Misses)
			c["neos.peer_budget_exhausted"] += float64(p.BudgetExhausted)
		}
		if r := m.Replication; r != nil {
			c["neos.repl_pushes"] += float64(r.Pushes)
			c["neos.repl_push_retries"] += float64(r.PushRetries)
			c["neos.repl_dropped"] += float64(r.Dropped)
			c["neos.repl_ingested"] += float64(r.Ingested)
			c[replQueue] += float64(r.QueueDepth)
			c[replicating]++
		}
		if o := m.Overload; o != nil {
			c["neos.shed"] += float64(o.ShedBreaker + o.ShedQueue)
		}
		if s := m.Store; s != nil {
			c["resultstore.bytes"] += float64(s.StoredBytes)
		}
	}
	for i, p := range f.procs {
		cpu, rss := procUsage(p.Process.Pid)
		who := "shards"
		if i == 0 {
			who = "router"
		}
		c["proc.cpu_s."+who] += cpu
		c["proc.rss_mb."+who] += rss
	}
	return c, nil
}

// since returns what changed between an earlier scrape and now.
func (f *fleet) since(before map[string]float64) (map[string]float64, error) {
	after, err := f.scrape()
	if err != nil {
		return nil, err
	}
	for k, v := range before {
		if !gauges[k] {
			after[k] -= v
		}
	}
	return after, nil
}

// settle waits, briefly, for the asynchronous replica pushes of the section
// just run to land, so that the counters scraped after it are final.
func (f *fleet) settle() {
	for i := 0; i < 200; i++ {
		c, err := f.scrape()
		if err != nil || c[replicating] == 0 || (c[replQueue] == 0 && c["neos.repl_pushes"]+c["neos.repl_dropped"] >= c["neos.solver_invocations"]) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// procUsage reads a process's CPU time (user + system, seconds) and peak
// resident set (MB) from /proc; zeros where /proc is missing.
func procUsage(pid int) (cpuS, rssMB float64) {
	const ticksPerSecond = 100 // USER_HZ on every Linux the benchmark targets
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// The command name, field 2, may hold spaces; the fields after its
		// closing parenthesis do not. utime and stime are fields 14 and 15.
		if i := strings.LastIndexByte(string(data), ')'); i >= 0 {
			fields := strings.Fields(string(data[i+1:]))
			if len(fields) > 12 {
				u, _ := strconv.ParseFloat(fields[11], 64)
				s, _ := strconv.ParseFloat(fields[12], 64)
				cpuS = (u + s) / ticksPerSecond
			}
		}
	}
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				rssMB = kb / 1024
			}
		}
	}
	return cpuS, rssMB
}
