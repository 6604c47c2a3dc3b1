package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// rank is the 1-based nearest-rank position of the q-quantile
// (0 ≤ q ≤ 1) among n sorted samples.
func rank(n int, q float64) int {
	return max(1, min(n, int(q*float64(n)+0.5)))
}

// quantile returns the q-quantile of sorted samples by the nearest-rank
// rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// median returns the median of the samples (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// tailPercentiles are the candidates tail reports from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile that has at least ten
// samples ranked beyond it, its value, and the sample count. With
// fewer than 20 samples no candidate qualifies and it reports the
// maximum as percentile 100. It sorts the samples.
func tail(xs []float64) (pct, value float64, n int) {
	sort.Float64s(xs)
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	for _, p := range tailPercentiles {
		if r := rank(n, p/100); n-r >= 10 {
			return p, xs[r-1], n
		}
	}
	return 100, xs[n-1], n
}

// vmHWMMB reads the peak resident set size of a process, in MiB, from
// /proc/<pid>/status ("self" for this process).
func vmHWMMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU returns the calling OS thread's CPU time. The caller must
// hold its thread with runtime.LockOSThread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID; the call cannot fail with a valid clock
	// and pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// procCPU returns a process's CPU time to the nanosecond, summed over
// its threads from /proc/<pid>/task/*/schedstat (whose first field is
// the thread's time on a CPU). A thread that has exited drops out of
// the sum; a Go server keeps its threads for its lifetime.
func procCPU(pid int) (time.Duration, error) {
	m, err := newCPUMeter(pid)
	if err != nil {
		return 0, err
	}
	defer m.close()
	return m.read()
}

// cpuMeter reads procCPU's sum repeatedly. It keeps every thread's
// schedstat open, so a read costs one pread per thread plus one of
// /proc/<pid>/stat to notice new threads. The serve client reads it
// between every two requests on the server's CPU, where opening each
// file anew raised the server's CPU time per hit (see NOTES.md).
type cpuMeter struct {
	pid     int
	stat    *os.File
	threads []*os.File
	buf     []byte
}

func newCPUMeter(pid int) (*cpuMeter, error) {
	stat, err := os.Open(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	m := &cpuMeter{pid: pid, stat: stat, buf: make([]byte, 1024)}
	if err := m.rescan(); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// rescan reopens the schedstat file of every current thread.
func (m *cpuMeter) rescan() error {
	for _, f := range m.threads {
		f.Close()
	}
	m.threads = m.threads[:0]
	dir := fmt.Sprintf("/proc/%d/task", m.pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, task := range tasks {
		f, err := os.Open(dir + "/" + task.Name() + "/schedstat")
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after ReadDir
		}
		if err != nil {
			return err
		}
		m.threads = append(m.threads, f)
	}
	return nil
}

// pread reads f from its start into m.buf.
func (m *cpuMeter) pread(f *os.File) (string, error) {
	n, err := f.ReadAt(m.buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return "", err
	}
	return string(m.buf[:n]), nil
}

// read returns the process's CPU time, rescanning its threads when
// their number has changed or one of them has gone.
func (m *cpuMeter) read() (time.Duration, error) {
	stat, err := m.pread(m.stat)
	if err != nil {
		return 0, err
	}
	// num_threads is field 20; count from the ')' that ends the
	// command name, which may hold spaces.
	f := strings.Fields(stat[strings.LastIndexByte(stat, ')')+1:])
	if len(f) < 18 {
		return 0, fmt.Errorf("short /proc/%d/stat", m.pid)
	}
	if n, err := strconv.Atoi(f[17]); err != nil || n != len(m.threads) {
		if err := m.rescan(); err != nil {
			return 0, err
		}
	}
	total, err := m.sum()
	if err != nil {
		if err := m.rescan(); err != nil {
			return 0, err
		}
		total, err = m.sum()
	}
	return total, err
}

func (m *cpuMeter) sum() (time.Duration, error) {
	var total int64
	for _, f := range m.threads {
		s, err := m.pread(f)
		if err != nil {
			return 0, err
		}
		onCPU, _, _ := strings.Cut(s, " ")
		ns, err := strconv.ParseInt(onCPU, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse schedstat of process %d: %w", m.pid, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

func (m *cpuMeter) close() {
	for _, f := range m.threads {
		f.Close()
	}
	m.stat.Close()
}
