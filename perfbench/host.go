package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fingerprint identifies the host and build a run's numbers belong to,
// so results from different machines are never compared by accident.
func fingerprint(workload string, cfg config) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_sha":    gitSHA(),
		"l3_bytes":   l3Bytes(),
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the commit of the working directory, or "unknown" when the
// working directory is not the top of a git checkout (git is kept from
// looking further up, where an enclosing repository would answer).
func gitSHA() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// defaultL3 is assumed when the cache size cannot be read (105 MiB, the
// last-level cache of the host the benchmark was written on).
const defaultL3 = 105 << 20

// l3Bytes reads the size of the last-level cache.
func l3Bytes() int64 {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return defaultL3
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return defaultL3
	}
	return v * mult
}

// streamGBs is a STREAM-style "scale" probe (a[i] = s*b[i]) over two
// arrays of four times the last-level cache each, split across
// GOMAXPROCS goroutines; it reports the best of five passes in GB/s,
// counting one read and one write per element.
func streamGBs() float64 {
	n := int(4 * l3Bytes() / 8)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i & 1023)
	}
	workers := runtime.GOMAXPROCS(0)
	best := time.Duration(1 << 62)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				x, y := a[lo:hi], b[lo:hi]
				for i := range x {
					x[i] = 3 * y[i]
				}
			}()
		}
		wg.Wait()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(2*8*n) / best.Seconds() / 1e9
}
