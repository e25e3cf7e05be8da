package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every result, so a drifting machine can
// be told apart from a regression.
type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Workers    int    `json:"shard_workers"`
	// StealTicks and TotalTicks are the /proc/stat CPU-time deltas (all
	// CPUs, USER_HZ ticks) over the measured window; -1 where the
	// kernel does not expose them.
	StealTicks int64 `json:"steal_ticks"`
	TotalTicks int64 `json:"total_ticks"`
}

func newEnvironment(workers int) environment {
	return environment{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    workers,
		StealTicks: -1,
		TotalTicks: -1,
	}
}

// stealPct is the share of CPU time the hypervisor stole over the
// measured window, in percent (-1 when unknown).
func (e environment) stealPct() float64 {
	if e.StealTicks < 0 || e.TotalTicks <= 0 {
		return -1
	}
	return 100 * float64(e.StealTicks) / float64(e.TotalTicks)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks reads the aggregate steal and total ticks from /proc/stat;
// ok is false where it is unavailable.
func cpuTicks() (steal, total int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	return parseCPULine(sc.Text())
}

// parseCPULine parses the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice]. Guest time is
// already included in user and nice, so it is not added to the total.
func parseCPULine(line string) (steal, total int64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
