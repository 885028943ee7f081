package obs

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processStart anchors the uptime gauges. Package init runs before any
// server accepts traffic, so this is the process start for observability
// purposes.
var processStart = time.Now()

// ProcessStart reports when this process initialized, the value behind
// process_start_time_seconds and the build-info stamp in incident
// bundles.
func ProcessStart() time.Time { return processStart }

// BuildVersion reports the main module's version as recorded by the Go
// linker ("(devel)" for plain `go build`, a tag or pseudo-version for
// module-aware installs).
func BuildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// memStatsCache amortizes runtime.ReadMemStats — a stop-the-world call —
// across the several gauge funcs that read it in one snapshot (and across
// rapid snapshot polls).
type memStatsCache struct {
	mu   sync.Mutex
	at   time.Time
	ttl  time.Duration
	stat runtime.MemStats
}

func (c *memStatsCache) get() runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.at) > c.ttl {
		runtime.ReadMemStats(&c.stat)
		c.at = time.Now()
	}
	return c.stat
}

// procStatPath is the OS view of this process; a var so tests can point
// the cache at a fixture.
var procStatPath = "/proc/self/stat"

// userHZ is the kernel tick unit /proc/self/stat reports CPU time in.
// USER_HZ is 100 on every Linux ABI this repo targets; reading it
// portably would need sysconf(_SC_CLK_TCK), i.e. cgo.
const userHZ = 100

// procStatCache amortizes the /proc/self/stat read and parse behind the
// process CPU/RSS gauges, the same way memStatsCache amortizes
// ReadMemStats: one file read serves all gauges in a snapshot and any
// rapid poll burst.
type procStatCache struct {
	mu  sync.Mutex
	at  time.Time
	ttl time.Duration
	cpu float64 // utime+stime, seconds
	rss float64 // resident set, bytes
}

func (c *procStatCache) get() (cpu, rss float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.at) > c.ttl {
		if cpu, rss, ok := readProcStat(); ok {
			c.cpu, c.rss = cpu, rss
		}
		c.at = time.Now()
	}
	return c.cpu, c.rss
}

// readProcStat parses CPU seconds (utime+stime) and resident bytes out
// of /proc/self/stat. ok is false off Linux or on any parse surprise —
// the gauges are then simply not registered.
func readProcStat() (cpu, rss float64, ok bool) {
	raw, err := os.ReadFile(procStatPath)
	if err != nil {
		return 0, 0, false
	}
	// The comm field (2) is parenthesized and may itself contain spaces
	// and parens; fields resume after the LAST ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 || i+2 >= len(raw) {
		return 0, 0, false
	}
	f := strings.Fields(string(raw[i+2:]))
	// f[0] is field 3 (state); utime is field 14 -> f[11], stime field
	// 15 -> f[12], rss (pages) field 24 -> f[21].
	if len(f) < 22 {
		return 0, 0, false
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	pages, err3 := strconv.ParseInt(f[21], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, false
	}
	return float64(utime+stime) / userHZ, float64(pages) * float64(os.Getpagesize()), true
}

// RegisterRuntime registers process-health gauges on r, turning
// GET /v1/debug/metrics into a lightweight profile:
//
//	runtime_goroutines            live goroutine count
//	runtime_heap_alloc_bytes      live heap bytes
//	runtime_heap_sys_bytes        heap bytes held from the OS
//	runtime_gc_runs_total         completed GC cycles
//	runtime_gc_pause_last_seconds most recent GC stop-the-world pause
//	gallery_build_info            constant 1, version labels identify the binary
//	process_start_time_seconds    Unix time the process initialized
//	process_uptime_seconds        seconds since then
//
// Where /proc/self is readable (Linux), two OS-view gauges join them:
//
//	process_cpu_seconds_total     user+system CPU consumed by the process
//	process_resident_memory_bytes resident set size
//
// Values derived from MemStats or /proc share a ~1s cache so snapshot
// polling doesn't itself become a stop-the-world (or syscall) generator.
func RegisterRuntime(r *Registry) {
	cache := &memStatsCache{ttl: time.Second}
	// The Prometheus build-info idiom: a constant-1 gauge whose labels
	// carry the identity, joinable against any other series.
	r.GaugeVec("gallery_build_info", []string{"version", "go_version"}, 1).
		With2(BuildVersion(), runtime.Version()).Set(1)
	r.GaugeFunc("process_start_time_seconds", func() float64 {
		return float64(processStart.UnixNano()) / 1e9
	})
	r.GaugeFunc("process_uptime_seconds", func() float64 {
		return time.Since(processStart).Seconds()
	})
	r.GaugeFunc("runtime_goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("runtime_heap_alloc_bytes", func() float64 {
		return float64(cache.get().HeapAlloc)
	})
	r.GaugeFunc("runtime_heap_sys_bytes", func() float64 {
		return float64(cache.get().HeapSys)
	})
	r.GaugeFunc("runtime_gc_runs_total", func() float64 {
		return float64(cache.get().NumGC)
	})
	r.GaugeFunc("runtime_gc_pause_last_seconds", func() float64 {
		m := cache.get()
		if m.NumGC == 0 {
			return 0
		}
		return float64(m.PauseNs[(m.NumGC+255)%256]) / 1e9
	})
	if _, _, ok := readProcStat(); ok {
		proc := &procStatCache{ttl: time.Second}
		r.GaugeFunc("process_cpu_seconds_total", func() float64 {
			cpu, _ := proc.get()
			return cpu
		})
		r.GaugeFunc("process_resident_memory_bytes", func() float64 {
			_, rss := proc.get()
			return rss
		})
	}
}
