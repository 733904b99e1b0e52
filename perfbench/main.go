// Command perfbench is the repository benchmark. One run drives one
// workload, generated from -seed, through the public functions of the
// library, the HTTP service and client, or the TCP cluster for
// -seconds, checks every output, and prints one JSON object as its last
// line of standard output: the end-to-end metrics, or with -trace 1 the
// per-layer metrics. Every sample of the run, with a fingerprint of the
// host, is kept in .bench_build/results. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// parts is how many fresh processes an untraced run is split into. Each
// sets the workload up and measures an equal share of the window; the
// operation metrics pool all of their samples. Set-up must run in a
// fresh process because translation operators live in a process-global
// cache that a second set-up would find warm, and pooling several
// processes averages out how fast one process happens to run on a
// shared host.
const parts = 3

// extraSetups is how many more fresh processes an untraced run starts
// that only set the workload up, spread between the parts: setup_s is
// the median of all parts+extraSetups set-up times.
const extraSetups = 4

type config struct {
	seed   int64
	window time.Duration
	trace  bool
	// full also checks the first answer against direct summation at
	// every target, the check rel_err reports; one process per run does.
	full bool
	// corrupt perturbs one reference value, so the checks must fail.
	corrupt bool
	// setupOnly ends the workload once it is set up.
	setupOnly bool
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg config, rep *report) error
}

var workloads = []workload{
	{"laplace-uniform", runLaplace},
	{"screened-solve", runScreened},
	{"serve-mixed", runServe},
	{"cluster-loopback", runCluster},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	corrupt := flag.Bool("corrupt-reference", false, "perturb one reference value; the checks must fail")
	part := flag.Int("part", -1, "run as part i of an untraced run (internal)")
	setupOnlyFlag := flag.Bool("setup-only", false, "with -part, only set the workload up (internal)")
	outDir := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the samples file")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *part >= parts || (*setupOnlyFlag && *part < 0) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		full: *part <= 0 && !*setupOnlyFlag, corrupt: *corrupt, setupOnly: *setupOnlyFlag,
	}
	ctx := context.Background()

	var sum summary
	switch {
	case *part >= 0:
		cfg.window /= parts
		rep := newReport()
		if err := wl.run(ctx, cfg, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s part %d: %v\n", wl.name, *part, err)
			return 1
		}
		b, err := json.Marshal(rep.summary())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s part %d: %v\n", wl.name, *part, err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	case cfg.trace:
		rep := newReport()
		if err := wl.run(ctx, cfg, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		rep.set("host.stream_gbs", streamGBs())
		layers := layerMetrics(rep)
		sum = rep.summary()
		sum.Layers = layers
	default:
		// Part i is followed by its share of the set-up-only processes.
		for i := 0; i < parts; i++ {
			p, err := runPart(wl.name, cfg, i, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			sum.add(p)
			for j := i * extraSetups / parts; j < (i+1)*extraSetups/parts; j++ {
				p, err := runPart(wl.name, cfg, i, true)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
					return 1
				}
				sum.Setup = append(sum.Setup, p.Setup...)
			}
		}
	}

	out := result(cfg, sum)
	host := fingerprint(wl.name, cfg)
	if err := keepSamples(*outDir, host, cfg, sum, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: keeping samples: %v\n", err)
	}
	for _, f := range sum.Failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// runPart runs part i of an untraced run in a fresh process, or only
// the workload's set-up in one, and returns its summary.
func runPart(name string, cfg config, i int, only bool) (summary, error) {
	var s summary
	self, err := os.Executable()
	if err != nil {
		return s, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.window / time.Second)), "-part", strconv.Itoa(i)}
	if cfg.corrupt {
		args = append(args, "-corrupt-reference")
	}
	if only {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return s, fmt.Errorf("part %d: %w", i, err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("part %d output %q: %w", i, b, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the printed object: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func result(cfg config, s summary) output {
	out := output{Attempted: s.Attempted, Failed: s.Failed, Metrics: map[string]metricValue{}}
	out.Correct = s.Failed == 0 && s.Attempted > 0
	if cfg.trace {
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{s.Layers[m.name], m.unit}
		}
		return out
	}
	vals := map[string]float64{
		"setup_s":      median(s.Setup),
		"op_ms_p50":    median(s.OpMS),
		"op_ms_tail":   quantile(s.OpMS, s.Tail),
		"ops_per_s":    float64(s.Completed) / s.ElapsedS,
		"rel_err":      math.Sqrt(s.ErrNum / s.ErrDen),
		"heap_peak_mb": median(s.HeapPeakMB),
	}
	for _, m := range endToEnd {
		out.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return out
}

// layerMetrics reduces a traced run to its per-layer metrics and runs
// the blocking-path check.
func layerMetrics(rep *report) map[string]float64 {
	// The traced and untraced operations alternate, so their medians
	// were taken under the same conditions.
	if len(rep.traced) > 0 && len(rep.ops) > 0 {
		rep.set("obs.trace_overhead_pct", (median(rep.traced)/median(rep.ops)-1)*100)
	}
	ratio := median(rep.samples["obs.path_sum_ratio"])
	if ratio < 1-pathTolerance || ratio > 1+pathTolerance {
		rep.attempt(false, "blocking-path layer times sum to %.3f of the operation wall time (tolerance %g)", ratio, pathTolerance)
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		v, ok := rep.values[m.name]
		if !ok {
			v = median(rep.samples[m.name])
		}
		out[m.name] = v
	}
	return out
}

// keepSamples writes every raw sample of the run beside its host
// fingerprint and printed result, one file per run.
func keepSamples(dir string, host map[string]any, cfg config, s summary, out output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{"host": host, "samples": s, "result": out}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", host["workload"], cfg.seed, btoi(cfg.trace), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
