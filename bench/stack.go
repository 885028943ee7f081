package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"gallery/internal/client"
	"gallery/internal/obs"
)

// stack is one workload's pair of daemons over one fresh data dir: the
// production configuration (auth, disk WAL, every other flag at its
// default, so tracer, profiler, recorder and RED vectors are armed).
type stack struct {
	env       *env
	workload  string
	dir       string
	dataDir   string
	tokenFile string
	fsync     bool
	gd, gs    *daemon
}

func (e *env) bootStack(workload string, fsync bool, gatewayArgs []string) (*stack, error) {
	dir, err := e.tempDir(workload)
	if err != nil {
		return nil, err
	}
	st := &stack{env: e, workload: workload, dir: dir, dataDir: filepath.Join(dir, "data"), fsync: fsync}
	if st.tokenFile, err = writeTokenFile(dir); err != nil {
		st.stop()
		return nil, err
	}
	if err := st.startGalleryd(); err != nil {
		st.stop()
		return nil, err
	}
	gsAddr, err := freeAddr()
	if err != nil {
		st.stop()
		return nil, err
	}
	args := append([]string{"-gallery", st.gd.url(), "-token", benchToken, "-auth", "-token-file", st.tokenFile}, gatewayArgs...)
	if st.gs, err = e.start("galleryserve", workload+".galleryserve.log", gsAddr, "/v1/healthz", args...); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// startGalleryd starts (or, on the same data dir and port, restarts)
// the registry daemon.
func (st *stack) startGalleryd() error {
	var addr string
	if st.gd != nil {
		addr = st.gd.addr
	} else if a, err := freeAddr(); err != nil {
		return err
	} else {
		addr = a
	}
	args := []string{"-data", st.dataDir, "-auth", "-token-file", st.tokenFile}
	if st.fsync {
		args = append(args, "-fsync")
	}
	// galleryd has no liveness route; /v1/stats is its cheapest
	// authenticated read, so "ready" means "answers an authenticated
	// request", which is what recover_s is defined as.
	gd, err := st.env.start("galleryd", st.workload+".galleryd.log", addr, "/v1/stats", args...)
	if err != nil {
		return err
	}
	st.gd = gd
	return nil
}

// crashGalleryd SIGKILLs the registry and restarts it on the same data
// dir, returning the time from exec to the first authenticated answer.
// SIGKILL leaves the OS page cache intact, so this proves durability
// against a process crash; only the -fsync workload's writes would also
// survive a machine crash, and no sandbox test can show that.
func (st *stack) crashGalleryd() (time.Duration, error) {
	st.gd.kill()
	t0 := time.Now()
	if err := st.startGalleryd(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (st *stack) stop() {
	if st.gs != nil {
		st.gs.kill()
	}
	if st.gd != nil {
		st.gd.kill()
	}
	st.env.removeDir(st.dir)
}

func (st *stack) registry() *client.Client { return newClient(st.gd.url()) }
func (st *stack) gateway() *client.Client  { return newClient(st.gs.url()) }

// storedBytes is what the registry keeps on disk: metadata WAL + blobs.
func (st *stack) storedBytes() int64 {
	return dirBytes(filepath.Join(st.dataDir, "blobs")) + dirBytes(filepath.Join(st.dataDir, "meta.wal"))
}

// debugCounters reads a daemon's metric registry through its existing
// GET /v1/debug/metrics.
func debugCounters(cl *client.Client) (map[string]int64, error) {
	raw, err := cl.DebugMetrics()
	if err != nil {
		return nil, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("decode debug metrics: %w", err)
	}
	return snap.Counters, nil
}

// procSnap is one reading of everything /proc says about the three
// processes and the host.
type procSnap struct {
	gdCPU, gsCPU time.Duration
	selfCPU      time.Duration
	gdCtxsw      int64
	gdHWM, gsHWM int64
	host         hostCPU
}

func (st *stack) snap() (procSnap, error) {
	s := procSnap{host: readHostCPU()}
	var err error
	if s.gdCPU, err = procCPU(st.gd.pid()); err != nil {
		return s, err
	}
	if s.gsCPU, err = procCPU(st.gs.pid()); err != nil {
		return s, err
	}
	if s.selfCPU, err = procCPU(selfPid); err != nil {
		return s, err
	}
	s.gdCtxsw = voluntarySwitches(st.gd.pid())
	s.gdHWM, s.gsHWM = peakRSSKB(st.gd.pid()), peakRSSKB(st.gs.pid())
	return s, nil
}
