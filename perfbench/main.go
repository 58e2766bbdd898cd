// Command perfbench is the repository benchmark: it drives the simulator,
// the experiment runner and an in-process idylld fleet through their public
// Go functions, checks every output, and prints one JSON result line.
//
//	perfbench --workload fig11|cells-first-touch|svc-fleet|all
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run records spans, a CPU profile and counters and reports the
// per-layer metrics. See README.md for what each workload and metric means.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run; every workload reports
// every one of them (README.md says what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p10_ms", "ms"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"sim_accesses_per_cpu_s", "1/s"},
}

// perLayer lists the metrics of a traced run, named after the modules.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.host_share", "ratio"},
	{"walker.queue_rejects", "count"},
	{"walker.useful_ratio", "ratio"},
	{"walker.host_share", "ratio"},
	{"datapath.host_share", "ratio"},
	{"datapath.flush_share", "ratio"},
	{"tlb.host_share", "ratio"},
	{"gpu.host_share", "ratio"},
	{"pagetable.host_share", "ratio"},
	{"interconnect.host_share", "ratio"},
	{"driver.migrations", "count"},
	{"core.invals_received", "count"},
	{"core.directory_filtered", "count"},
	{"runtime.allocs_per_access", "allocs/access"},
	{"runtime.gc_share", "ratio"},
	{"runtime.host_share", "ratio"},
	{"workload.generate_ms", "ms"},
	{"system.build_ms", "ms"},
	{"system.run_ms", "ms"},
	{"experiment.pool_efficiency", "ratio"},
	{"service.submit_share", "ratio"},
	{"service.wait_share", "ratio"},
	{"service.simulate_share", "ratio"},
	{"service.coord_hit_ratio", "ratio"},
	{"fleet.dispatch_overhead_share", "ratio"},
	{"fleet.replications_per_miss", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.max_rps_at_slo", "1/s"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(*run) error{
	"fig11":             runFig11,
	"cells-first-touch": runFirstTouch,
	"svc-fleet":         runFleet,
}

// kernelShape is the reference kernel each workload is scaled by (speed.go).
var kernelShape = map[string]string{
	"fig11":             "compute",
	"cells-first-touch": "compute",
	"svc-fleet":         "service",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	outDir   string
	tr       *tracer // nil unless traced
	speed    speed
	// pausedCPU is the process CPU time spent in speed pauses inside the
	// measured phase, which the access rate leaves out.
	pausedCPU time.Duration

	attempted, failed int
	problems          []string
	values            map[string]float64
}

// set records a metric value; its unit comes from the metric lists.
func (r *run) set(name string, v float64) { r.values[name] = v }

// problem records a failed check. Failed operations are counted separately
// by the workload; a problem with no failed operation still makes the run
// incorrect.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", r.workload, msg)
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// traceDir is where a traced run writes its spans, profile and counters.
func (r *run) traceDir() string {
	return filepath.Join(r.outDir, "trace", fmt.Sprintf("%s-seed%d", r.workload, r.seed))
}

func main() {
	var (
		name    = flag.String("workload", "", "fig11, cells-first-touch, svc-fleet, or all")
		seed    = flag.Uint64("seed", 20231028, "workload seed (20231028 is the suite seed)")
		seconds = flag.Int("seconds", 25, "how long the measured phase runs")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".perfbench_out", "directory for traces and cross-run records")
		kernel  = flag.String(kernelFlag, "", "time the host's reference kernel of this shape and exit (see speed.go)")
	)
	flag.Parse()
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2) // the workloads are sized for two cores
	}
	if *kernel != "" {
		if err := kernelChild(*kernel); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced, *outDir))
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s, all)\n",
			*name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join("results", "full_suite.txt")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		os.Exit(2)
	}

	r := &run{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, outDir: *outDir, values: map[string]float64{},
		speed: speed{shape: kernelShape[*name]}}
	if r.traced {
		r.tr = newTracer()
	}
	if err := r.measure(fn); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	r.report(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure runs the workload. A timed run also samples the host's speed
// before the workload sets up and after it has stopped, and scales its
// end-to-end metrics to nominal speed.
func (r *run) measure(fn func(*run) error) error {
	if r.traced {
		return fn(r)
	}
	if err := r.speed.sample(); err != nil {
		return err
	}
	if err := fn(r); err != nil {
		return err
	}
	if err := r.speed.sample(); err != nil {
		return err
	}
	r.scaleToNominal()
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the result line: exactly the metric list of the run's
// mode, each present.
func (r *run) result() (result, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{
		Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]metric{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// report prints the metrics by name with units to stderr.
func (r *run) report(res result) {
	mode := "end-to-end"
	defs := endToEnd
	if r.traced {
		mode, defs = "per-layer", perLayer
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d %s: correct=%v attempted=%d failed=%d\n",
		r.workload, r.seed, mode, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// runAll runs every workload in its own process, one after another, and
// prints a combined result whose metric names are prefixed by workload.
func runAll(seed uint64, seconds, traced int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced), "--out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		for sc.Scan() {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: bad result line: %v\n", name, err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return 0
}
