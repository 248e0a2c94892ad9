package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// hostTicks is the host-wide aggregate from the "cpu" line of
// /proc/stat: all ticks, and the ticks stolen by the hypervisor.
type hostTicks struct{ total, steal uint64 }

func readHostTicks() (hostTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t hostTicks
		for i, v := range fields[1:] {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return hostTicks{}, fmt.Errorf("/proc/stat: %w", err)
			}
			// user nice system idle iowait irq softirq steal guest guest_nice:
			// guest time is already counted in user, so stop at steal.
			if i <= 7 {
				t.total += n
			}
			if i == 7 {
				t.steal = n
			}
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return hostTicks{}, err
	}
	return hostTicks{}, fmt.Errorf("/proc/stat: no cpu line")
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts VmHWM from the current resident set (Linux
// clear_refs mode 5), so the next read gives one round's peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// meter accumulates process CPU and host steal over the timed windows.
type meter struct {
	cpu        time.Duration
	wall       time.Duration
	ticks      hostTicks
	startCPU   time.Duration
	startWall  time.Time
	startTicks hostTicks
}

func (m *meter) start() error {
	var err error
	if m.startCPU, err = cpuTime(); err != nil {
		return err
	}
	if m.startTicks, err = readHostTicks(); err != nil {
		return err
	}
	m.startWall = time.Now()
	return nil
}

func (m *meter) stop() error {
	wall := time.Since(m.startWall)
	cpu, err := cpuTime()
	if err != nil {
		return err
	}
	ticks, err := readHostTicks()
	if err != nil {
		return err
	}
	m.wall += wall
	m.cpu += cpu - m.startCPU
	m.ticks.total += ticks.total - m.startTicks.total
	m.ticks.steal += ticks.steal - m.startTicks.steal
	return nil
}

// stealShare is the share of host CPU time stolen during the windows.
func (m *meter) stealShare() float64 {
	if m.ticks.total == 0 {
		return 0
	}
	return float64(m.ticks.steal) / float64(m.ticks.total)
}

// hostRecord describes where and how a run measured. It is printed
// beside the metrics so runs on a noisy or different host can be told
// apart; none of it is a metric.
type hostRecord struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Trace         bool    `json:"trace"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	RunnerWorkers int     `json:"runner_workers"`
	Clients       int     `json:"clients"`
	FoldWorkers   int     `json:"fold_workers"`
	Rounds        int     `json:"rounds"`
	Setups        int     `json:"setups"`
	JobsPerRound  int     `json:"jobs_per_round"`
	TimedSeconds  float64 `json:"timed_seconds"`
	ProcessCPUSec float64 `json:"process_cpu_seconds"`
	HostStealPct  float64 `json:"host_steal_pct"`
	TailPct       float64 `json:"latency_tail_percentile"`
	TailN         int     `json:"latency_samples"`
	// SATProved and SATUnknown count distinct results whose SAT proof
	// finished, and whose proof ran out of budget (random simulation
	// still checked them).
	SATProved  int `json:"sat_proved"`
	SATUnknown int `json:"sat_unknown"`
}

func newHostRecord(workload string, seed int64, trace bool, workers, clients, foldWorkers int) hostRecord {
	return hostRecord{
		Workload: workload, Seed: seed, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		RunnerWorkers: workers, Clients: clients, FoldWorkers: foldWorkers,
	}
}
