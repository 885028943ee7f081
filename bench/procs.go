package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

	"gallery/internal/client"
	"gallery/internal/tenant"
)

// benchToken is the pre-shared operator credential both daemons are
// seeded with through -token-file. It is a fixed string: the daemons live
// for one run on loopback ports inside a temp dir.
const benchToken = "gal_bench0123456789abcdef0123456789abcdef"

// env is what one invocation shares across workloads: where the source
// tree is, where the built daemons are, and where logs go.
type env struct {
	root   string // checkout root (holds cmd/, internal/, bench/)
	binDir string // built daemons
	outDir string // bench/out: logs, results.json, trace.json
	tmp    string // parent of the per-workload temp dirs

	mu    sync.Mutex
	procs map[*daemon]struct{} // live daemons, killed on every exit path
	dirs  map[string]struct{}  // live temp dirs, removed on every exit path
}

func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "galleryd", "main.go")); err != nil {
		return nil, fmt.Errorf("no Gallery source tree at %s (cmd/galleryd missing): %w", root, err)
	}
	e := &env{
		root:   root,
		binDir: filepath.Join(root, ".bench_build", "bin"),
		outDir: filepath.Join(root, "bench", "out"),
		tmp:    filepath.Join(root, ".bench_build", "tmp"),
		procs:  map[*daemon]struct{}{},
		dirs:   map[string]struct{}{},
	}
	// A benchmark that was SIGKILLed could not remove its temp dirs; one
	// benchmark runs in a checkout at a time, so whatever is there is stale.
	if err := os.RemoveAll(e.tmp); err != nil {
		return nil, err
	}
	for _, d := range []string{e.binDir, e.outDir, e.tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// build compiles both daemons from the checkout. The time is not part of
// any metric.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.binDir+string(os.PathSeparator), "./cmd/galleryd", "./cmd/galleryserve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build daemons: %w\n%s", err, out)
	}
	return nil
}

// tempDir makes one workload's private directory; cleanup removes it.
func (e *env) tempDir(name string) (string, error) {
	dir, err := os.MkdirTemp(e.tmp, name+"-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.dirs[dir] = struct{}{}
	e.mu.Unlock()
	return dir, nil
}

func (e *env) removeDir(dir string) {
	e.mu.Lock()
	delete(e.dirs, dir)
	e.mu.Unlock()
	os.RemoveAll(dir)
}

// cleanup kills every live daemon, waits for it, and removes every temp
// dir. It runs on normal exit, on error, on panic and on SIGINT/SIGTERM.
func (e *env) cleanup() {
	e.mu.Lock()
	procs := make([]*daemon, 0, len(e.procs))
	for d := range e.procs {
		procs = append(procs, d)
	}
	dirs := make([]string, 0, len(e.dirs))
	for d := range e.dirs {
		dirs = append(dirs, d)
	}
	e.mu.Unlock()
	for _, d := range procs {
		d.kill()
	}
	for _, d := range dirs {
		e.removeDir(d)
	}
}

// daemon is one galleryd or galleryserve subprocess.
type daemon struct {
	env  *env
	addr string // host:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when the process has been waited for
}

func (d *daemon) url() string { return "http://" + d.addr }
func (d *daemon) pid() int    { return d.cmd.Process.Pid }

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches a daemon on addr and waits until it answers readyPath
// with 200. Something already answering on addr before our process is up,
// or our process dying while the port answers, means another process
// holds the port (a leftover daemon): that is refused, not adopted.
func (e *env) start(name, logName, addr, readyPath string, args ...string) (*daemon, error) {
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		return nil, fmt.Errorf("%s: %s is already held by another process (leftover daemon?)", name, addr)
	}
	// Append: a daemon restarted after the crash check keeps one log.
	logf, err := os.OpenFile(filepath.Join(e.outDir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.binDir, name), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark is killed outright, the kernel takes the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{env: e, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon is expected
		close(d.done)
	}()
	e.mu.Lock()
	e.procs[d] = struct{}{}
	e.mu.Unlock()

	req, err := http.NewRequest("GET", d.url()+readyPath, nil)
	if err != nil {
		d.kill()
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+benchToken)
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-d.done:
			d.kill()
			return nil, fmt.Errorf("%s exited during start-up; see %s", name, logf.Name())
		default:
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("%s not ready on %s after 20s; see %s", name, addr, logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process has ended. Safe to call
// twice.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	d.log.Close()
	d.env.mu.Lock()
	delete(d.env.procs, d)
	d.env.mu.Unlock()
}

// writeTokenFile writes the -token-file seed both daemons load.
func writeTokenFile(dir string) (string, error) {
	seed := tenant.Seed{Tokens: []tenant.SeedToken{{
		Secret: benchToken, Name: "bench", Namespace: tenant.DefaultNamespace, Role: "operator",
	}}}
	raw, err := json.Marshal(seed)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "tokens.json")
	return path, os.WriteFile(path, raw, 0o600)
}

// newClient returns a Gallery client with a transport of its own, so each
// load goroutine drives exactly one connection.
func newClient(base string) *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return client.NewWith(base, client.Options{HTTP: &http.Client{Transport: tr, Timeout: 30 * time.Second}, Token: benchToken})
}

// --- /proc readers ---

// clkTck is USER_HZ; Linux fixes it at 100 on every architecture Go
// supports, and reading it properly needs cgo.
const clkTck = 100

// procCPU returns a process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unexpected /proc/pid/stat format")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unexpected /proc/pid/stat format")
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// voluntarySwitches sums a process's voluntary context switches over
// every thread.
func voluntarySwitches(pid int) (n int64) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	for _, t := range tasks {
		n += statusField(t, "voluntary_ctxt_switches:")
	}
	return n
}

// peakRSSKB is a process's peak resident set (VmHWM) in kB.
func peakRSSKB(pid int) int64 {
	return statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
}

func statusField(path, key string) int64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0 // a thread that has exited since the glob
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// hostCPU is the machine-wide jiffy counters of /proc/stat's first line.
type hostCPU struct{ total, steal, iowait int64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, s := range f[1:] {
		n, _ := strconv.ParseInt(s, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			h.total += n
		}
		switch i {
		case 4:
			h.iowait = n
		case 7:
			h.steal = n
		}
	}
	return h
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
