// Package cluster runs the system under test as separate processes on
// loopback — one kvfront and n kvnode — and measures them from outside:
// admin /metrics scrapes, /proc CPU and memory, disk usage of the WAL
// directories. It owns the secret partition seed; the load generator
// only ever gets the frontend's address.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"securecache/internal/kvstore"
)

// Config describes one cluster.
type Config struct {
	// BinDir holds the kvfront and kvnode binaries.
	BinDir string
	// OutDir receives logs/ and data/ (the benchmark's bench/out).
	OutDir string
	// Name labels the log files and data directories.
	Name string

	Nodes       int
	Replication int
	// PartitionSeed is kvfront's SECRET -seed.
	PartitionSeed uint64
	// CacheSize is kvfront's -cache-size; 0 auto-provisions c* for
	// Items stored keys with the paper's k (KOverride).
	CacheSize int
	Items     int
	KOverride float64
	// WAL gives every kvnode a -data-dir with the default flush policy.
	WAL bool
	// FrontProcs and NodeProcs are the GOMAXPROCS of kvfront and of each
	// kvnode.
	FrontProcs, NodeProcs int
	// BackendConns is kvfront's -pool-size: the idle connections it keeps
	// per backend. It must cover the generator's in-flight requests or
	// every miss beyond the pool pays a dial.
	BackendConns int
}

// proc is one child process.
type proc struct {
	name  string
	args  []string
	env   []string
	addr  string // wire protocol
	admin string // HTTP admin
	log   *os.File
	cmd   *exec.Cmd
	done  chan struct{} // closed when the process has been waited for
	// killed is set before the benchmark itself signals the process, so
	// an exit after that is not "died early".
	killed bool
}

// Cluster is a running kvfront with its kvnodes.
type Cluster struct {
	cfg   Config
	front *proc
	nodes []*proc
}

func (c *Cluster) procs() []*proc { return append([]*proc{c.front}, c.nodes...) }

// FrontAddr is the address clients connect to.
func (c *Cluster) FrontAddr() string { return c.front.addr }

// NodeAddr is the wire address of kvnode i.
func (c *Cluster) NodeAddr(i int) string { return c.nodes[i].addr }

// NodePid is the process ID of kvnode i.
func (c *Cluster) NodePid(i int) int { return c.nodes[i].cmd.Process.Pid }

// freeAddrs reserves n distinct loopback ports by binding them all at
// once, then releases them for the children to bind.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: reserve port: %w", err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// Start spawns the processes and returns once every one answers Ping.
// The data directories of a WAL cluster are created empty.
func Start(cfg Config) (*Cluster, error) {
	for _, dir := range []string{filepath.Join(cfg.OutDir, "logs"), filepath.Join(cfg.OutDir, "data")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	addrs, err := freeAddrs(2 * (cfg.Nodes + 1))
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	var backends []string
	for i := 0; i < cfg.Nodes; i++ {
		p := &proc{
			name: fmt.Sprintf("kvnode%d", i), addr: addrs[2*i], admin: addrs[2*i+1],
			env: []string{"GOMAXPROCS=" + strconv.Itoa(cfg.NodeProcs)},
		}
		p.args = []string{filepath.Join(cfg.BinDir, "kvnode"), "-id", strconv.Itoa(i), "-listen", p.addr, "-admin", p.admin}
		if cfg.WAL {
			dir := c.dataDir(i)
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("cluster: %w", err)
			}
			p.args = append(p.args, "-data-dir", dir)
		}
		c.nodes = append(c.nodes, p)
		backends = append(backends, p.addr)
	}
	c.front = &proc{
		name: "kvfront", addr: addrs[2*cfg.Nodes], admin: addrs[2*cfg.Nodes+1],
		env: []string{"GOMAXPROCS=" + strconv.Itoa(cfg.FrontProcs)},
	}
	c.front.args = []string{
		filepath.Join(cfg.BinDir, "kvfront"), "-listen", c.front.addr, "-admin", c.front.admin,
		"-backends", strings.Join(backends, ","), "-replication", strconv.Itoa(cfg.Replication),
		"-seed", strconv.FormatUint(cfg.PartitionSeed, 10), "-selection", "least-inflight",
		"-cache-size", strconv.Itoa(cfg.CacheSize), "-items", strconv.Itoa(cfg.Items),
		"-k", strconv.FormatFloat(cfg.KOverride, 'g', -1, 64),
		"-pool-size", strconv.Itoa(cfg.BackendConns),
	}
	for _, p := range c.nodes {
		if err := c.spawn(p); err != nil {
			c.Stop()
			return nil, err
		}
	}
	if err := c.spawn(c.front); err != nil {
		c.Stop()
		return nil, err
	}
	for _, p := range c.procs() {
		if _, err := p.awaitPing(10 * time.Second); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) dataDir(i int) string {
	return filepath.Join(c.cfg.OutDir, "data", fmt.Sprintf("%s-node%d", c.cfg.Name, i))
}

// spawn starts p in its own process group with stderr and stdout
// appended to its log file. The child is killed if this process dies.
func (c *Cluster) spawn(p *proc) error {
	if p.log == nil {
		path := filepath.Join(c.cfg.OutDir, "logs", c.cfg.Name+"-"+p.name+".log")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		p.log = f
	}
	cmd := exec.Command(p.args[0], p.args[1:]...)
	cmd.Env = append(os.Environ(), p.env...)
	cmd.Stdout, cmd.Stderr = p.log, p.log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: start %s: %w", p.name, err)
	}
	p.cmd, p.done, p.killed = cmd, make(chan struct{}), false
	go func(done chan struct{}) {
		cmd.Wait() // the exit status is read from cmd.ProcessState
		close(done)
	}(p.done)
	return nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// awaitPing polls p until it answers a Ping and returns how long that
// took.
func (p *proc) awaitPing(limit time.Duration) (time.Duration, error) {
	start := time.Now()
	cl := kvstore.NewClientWithConfig(p.addr, kvstore.ClientConfig{DialTimeout: time.Second, MaxRetries: -1})
	defer cl.Close()
	for {
		err := cl.Ping()
		if err == nil {
			return time.Since(start), nil
		}
		if p.exited() {
			return 0, fmt.Errorf("cluster: %s exited before answering Ping (%v); see %s", p.name, p.cmd.ProcessState, p.log.Name())
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("cluster: %s did not answer Ping within %v: %w", p.name, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Alive reports an error if any child has exited without the benchmark
// having killed it.
func (c *Cluster) Alive() error {
	for _, p := range c.procs() {
		if p.cmd != nil && !p.killed && p.exited() {
			return fmt.Errorf("cluster: %s died early (%v); see %s", p.name, p.cmd.ProcessState, p.log.Name())
		}
	}
	return nil
}

// kill signals p's process group and waits for the process to be reaped.
func (p *proc) kill(sig syscall.Signal, limit time.Duration) bool {
	p.killed = true
	syscall.Kill(-p.cmd.Process.Pid, sig) // ESRCH when already gone
	select {
	case <-p.done:
		return true
	case <-time.After(limit):
		return false
	}
}

// Stop terminates every child (SIGTERM, then SIGKILL to the process
// group), removes the data directories and reports anything that went
// wrong on the way: a child that had died early, a process group or a
// listening port left behind.
func (c *Cluster) Stop() error {
	err := c.Alive()
	for _, p := range c.procs() {
		if p.cmd == nil {
			continue
		}
		if !p.exited() && !p.kill(syscall.SIGTERM, 2*time.Second) {
			p.kill(syscall.SIGKILL, 5*time.Second)
		}
		// Whatever the child may have forked goes with its group.
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, p := range c.procs() {
		if p.cmd == nil {
			continue
		}
		if kerr := syscall.Kill(-p.cmd.Process.Pid, 0); !errors.Is(kerr, syscall.ESRCH) {
			err = errors.Join(err, fmt.Errorf("cluster: process group of %s (pid %d) left behind", p.name, p.cmd.Process.Pid))
		}
		for _, addr := range []string{p.addr, p.admin} {
			if conn, derr := net.DialTimeout("tcp", addr, time.Second); derr == nil {
				conn.Close()
				err = errors.Join(err, fmt.Errorf("cluster: %s still listening on %s", p.name, addr))
			}
		}
		if p.log != nil {
			p.log.Close()
		}
	}
	if c.cfg.WAL {
		for i := range c.nodes {
			os.RemoveAll(c.dataDir(i))
		}
	}
	return err
}

// CrashNode kills kvnode i with SIGKILL, as a crash would. The operating
// system keeps its page cache, so what the restart then replays is
// everything the process wrote, flushed or not: this checks replay, not
// power loss.
func (c *Cluster) CrashNode(i int) error {
	if !c.nodes[i].kill(syscall.SIGKILL, 5*time.Second) {
		return fmt.Errorf("cluster: kvnode%d survived SIGKILL", i)
	}
	return nil
}

// RestartNode starts kvnode i again on the same address and data
// directory and returns the time from spawn to its first Ping reply.
func (c *Cluster) RestartNode(i int) (time.Duration, error) {
	p := c.nodes[i]
	if err := c.spawn(p); err != nil {
		return 0, err
	}
	return p.awaitPing(30 * time.Second)
}

// Counters is one scrape of every admin /metrics endpoint.
type Counters struct {
	Front map[string]float64
	Nodes []map[string]float64
}

func scrape(admin string) (map[string]float64, error) {
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("cluster: scrape: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: scrape %s: %w", admin, err)
	}
	var m map[string]float64
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("cluster: scrape %s: %w", admin, err)
	}
	return m, nil
}

// Scrape reads the counters of the frontend and every node.
func (c *Cluster) Scrape() (Counters, error) {
	var out Counters
	var err error
	if out.Front, err = scrape(c.front.admin); err != nil {
		return out, err
	}
	for _, p := range c.nodes {
		m, err := scrape(p.admin)
		if err != nil {
			return out, err
		}
		out.Nodes = append(out.Nodes, m)
	}
	return out, nil
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTick = 100

// CPU returns the user+system CPU time the live server processes have
// used so far.
func (c *Cluster) CPU() (time.Duration, error) {
	var ticks int64
	for _, p := range c.procs() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("cluster: cpu of %s: %w", p.name, err)
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the line, 12 and 13 after the name.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("cluster: cpu of %s: short stat line", p.name)
		}
		ut, err1 := strconv.ParseInt(f[11], 10, 64)
		st, err2 := strconv.ParseInt(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("cluster: cpu of %s: bad stat line", p.name)
		}
		ticks += ut + st
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// RSSMiB returns the sum of the peak resident set sizes (VmHWM) of the
// live server processes.
func (c *Cluster) RSSMiB() (float64, error) {
	var kib float64
	for _, p := range c.procs() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("cluster: rss of %s: %w", p.name, err)
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("cluster: rss of %s: %w", p.name, err)
				}
				kib += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("cluster: rss of %s: no VmHWM", p.name)
		}
	}
	return kib / 1024, nil
}

// WALBytes returns the disk usage (allocated blocks, as du counts them)
// of the nodes' data directories; 0 without a WAL.
func (c *Cluster) WALBytes() (int64, error) {
	if !c.cfg.WAL {
		return 0, nil
	}
	var total int64
	for i := range c.nodes {
		err := filepath.WalkDir(c.dataDir(i), func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			if st, ok := info.Sys().(*syscall.Stat_t); ok {
				total += st.Blocks * 512
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("cluster: du: %w", err)
		}
	}
	return total, nil
}
