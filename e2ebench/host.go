package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"

	"github.com/sies/sies/internal/core"
)

// snapshot is the process and node counter state at one edge of the window.
type snapshot struct {
	ru              syscall.Rusage
	mem             runtime.MemStats
	steal, allTicks float64 // host CPU ticks from /proc/stat

	// Traced pass only.
	agg, qm                        map[string]float64 // Metrics().Snapshot()
	sched                          core.ScheduleStats
	frames, bytes, writes, writeNs int64
	sendNs, sends                  int64
}

func (p *pass) snap(t *tree) snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	if pr := p.probe; pr != nil {
		s.agg = t.agg.Metrics().Snapshot()
		s.qm = t.qn.Metrics().Snapshot()
		s.sched = t.qn.ScheduleStats()
		s.frames, s.bytes = pr.frames.Load(), pr.bytes.Load()
		s.writes, s.writeNs = pr.writes.Load(), pr.writeNs.Load()
		s.sendNs, s.sends = p.sendNs, p.sends
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s.ru) // cannot fail for RUSAGE_SELF
	s.steal, s.allTicks = cpuTicks()
	return s
}

// cpuTicks reads the steal and total ticks of all CPUs from /proc/stat; on a
// VM, steal is time the host ran something else while a vCPU wanted to run.
func cpuTicks() (steal, all float64) {
	f := strings.Fields(procField("/proc/stat", "cpu "))
	for i, v := range f[:min(len(f), 8)] { // guest time is already in user
		x, _ := strconv.ParseFloat(v, 64)
		all += x
		if i == 7 {
			steal = x
		}
	}
	return steal, all
}

// stealPct is the host's steal share over the window, in percent.
func (p *pass) stealPct() float64 {
	all := p.after.allTicks - p.before.allTicks
	if all <= 0 {
		return 0
	}
	return 100 * (p.after.steal - p.before.steal) / all
}

// cpu is user+system CPU time in ns.
func (s snapshot) cpu() int64 { return s.ru.Utime.Nano() + s.ru.Stime.Nano() }

func cpuTime() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	kb, _ := strconv.ParseFloat(procField("/proc/self/status", "VmHWM:"), 64)
	return kb / 1024
}

// resetPeakRSS lowers the process's VmHWM to its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// procField returns the first word after key in a /proc text file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
		}
	}
	return "unknown"
}

// provenance records what the run measured and where.
func provenance(opt options) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"workload":      opt.w.name,
		"sources":       opt.w.sources,
		"rate_eps":      opt.w.rate,
		"seed":          opt.seed,
		"seconds":       opt.seconds,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     strings.TrimPrefix(procField("/proc/cpuinfo", "model name"), ": "),
		"kernel":        string(bytes.TrimSpace(kernel)),
		"go_version":    runtime.Version(),
		"git_rev":       opt.rev,
		"source_sha256": sourceDigest(),
		"state_fs":      fsType(opt.stateRoot),
		"network":       "loopback",
	}
}

// sourceDigest hashes the Go sources under the working directory, which
// identifies the code under test where no git metadata is available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join("e2ebench", "results")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// table is a bump allocator over one anonymous mapping outside the Go heap.
// The harness keeps its per-epoch tables there: on the heap they would raise
// the collector's heap goal and change the GC pacing being measured.
type table struct {
	free []byte
	used int // bytes carved so far
}

func newTable(bytes int) (*table, error) {
	mem, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes for the per-epoch tables: %w", bytes, err)
	}
	return &table{free: mem}, nil
}

// mib is how much of the table has been carved: what the harness's own
// per-epoch tables can add to the process's resident set.
func (t *table) mib() float64 { return float64(t.used) / (1 << 20) }

// alloc carves n zero values of the pointer-free type T from the table.
func alloc[T any](t *table, n int) []T {
	var zero T
	size := (n*int(unsafe.Sizeof(zero)) + 7) &^ 7
	if size > len(t.free) {
		panic("e2ebench: per-epoch table sized too small")
	}
	s := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(t.free))), n)
	t.free = t.free[size:]
	t.used += size
	return s
}
