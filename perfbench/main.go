// Command perfbench is the repository benchmark: three seeded
// workloads (controller, sweep, serve) driven from outside the engine
// through the layers' public functions. A plain run (-trace 0) reports
// the end-to-end metrics; a traced run (-trace 1) reports per-layer
// attribution from spans recorded around the calls into each layer and
// from the engine's own public counters. Every run checks its outputs
// and prints one JSON result object as its last line of standard
// output. See NOTES.md for why each workload and metric exists.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench -workload controller|sweep|serve -seed N -seconds S -trace 0|1
//	          [-tegserve path] [-out dir] [-golden file] [-record]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

func (m Metrics) set(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }

// Report is the benchmark's last line of output.
type Report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// Tally counts attempted and failed operations; every failed output
// check lands here and feeds success_rate.
type Tally struct {
	Attempted, Failed int
	Reasons           []string
}

// Fail records a failed op with its reason (the first few reasons are
// printed to standard error).
func (t *Tally) Fail(format string, args ...any) {
	t.Failed++
	if len(t.Reasons) < 10 {
		t.Reasons = append(t.Reasons, fmt.Sprintf(format, args...))
	}
}

// Config is one benchmark invocation.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Tegserve string // path of the built tegserve binary
	Out      string // scratch directory for span dumps and stores
	Golden   *Golden
	Record   bool
}

// Outcome is what a workload hands back: the untraced run's end-to-end
// metrics, or (traced) the per-layer metrics, plus the op tally.
type Outcome struct {
	Metrics Metrics
	Tally   Tally
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(Config) (Outcome, error){
	"controller": runController,
	"sweep":      runSweep,
	"serve":      runServe,
}

// endToEnd lists the metrics a -trace 0 run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"success_rate", "ratio"},
	{"module_ticks_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// perLayer lists the metrics a -trace 1 run reports, with their units.
// A layer the workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"core.decide_us.inor", "us"},
	{"core.decide_us.dnor", "us"},
	{"core.decide_us.ehtr", "us"},
	{"core.decide_us.n40", "us"},
	{"core.decide_us.n100", "us"},
	{"core.decide_us.n400", "us"},
	{"core.decide_share", "ratio"},
	{"core.decide_share_phases", "ratio"},
	{"core.decisions", "count"},
	{"core.reconfigurations.dnor", "count"},
	{"core.dnor.actuate_ratio", "ratio"},
	{"predict.observe_us", "us"},
	{"predict.predict_us", "us"},
	{"predict.calls", "count"},
	{"sim.step_self_us", "us"},
	{"sim.sense_us", "us"},
	{"sim.act_us", "us"},
	{"thermal.solve_us", "us"},
	{"drive.conditions_us", "us"},
	{"scenario.expand_ms", "ms"},
	{"sim.batch.cpu_util", "ratio"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"report.encode_us", "us"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.disk_hit_share", "ratio"},
	{"serve.server_ms.runs", "ms"},
	{"serve.server_ms.sweeps", "ms"},
	{"serve.server_ms.matrix", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.job_ms", "ms"},
	{"serve.phase_share.temps", "ratio"},
	{"serve.phase_share.sense", "ratio"},
	{"serve.phase_share.decide", "ratio"},
	{"serve.phase_share.act", "ratio"},
	{"store.puts", "count"},
	{"client.wall_ms_p50", "ms"},
	{"client.wall_ms_p99", "ms"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	var cfg Config
	var trace int
	var goldenPath string
	flag.StringVar(&cfg.Workload, "workload", "", "workload: controller, sweep or serve")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.Tegserve, "tegserve", filepath.Join(".bench_build", "bin", "tegserve"), "tegserve binary (serve workload)")
	flag.StringVar(&cfg.Out, "out", filepath.Join(".bench_build", "out"), "scratch directory for span dumps and stores")
	flag.StringVar(&goldenPath, "golden", filepath.Join("perfbench", "golden.json"), "recorded output digests")
	flag.BoolVar(&cfg.Record, "record", false, "record this seed's output digest into the golden file instead of checking it")
	flag.Parse()
	cfg.Trace = trace == 1

	if err := run(cfg, goldenPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg Config, goldenPath string) error {
	wl, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	g, err := LoadGolden(goldenPath)
	if err != nil {
		return err
	}
	cfg.Golden = g
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	out, err := wl(cfg)
	if err != nil {
		return err
	}
	if cfg.Record {
		return g.Save(goldenPath)
	}
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := out.Metrics[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", cfg.Workload, m.name)
		}
		if v.Unit != m.unit {
			return fmt.Errorf("metric %s unit %q, want %q", m.name, v.Unit, m.unit)
		}
	}
	for name := range out.Metrics {
		if !contains(want, name) {
			delete(out.Metrics, name)
		}
	}
	t := out.Tally
	if t.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	for _, r := range t.Reasons {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", r)
	}
	rep := Report{Correct: t.Failed == 0, Attempted: t.Attempted, Failed: t.Failed, Metrics: out.Metrics}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func contains(list []struct{ name, unit string }, name string) bool {
	for _, m := range list {
		if m.name == name {
			return true
		}
	}
	return false
}

// noteTail states on standard error which percentile op_tail_ms holds
// and over how many samples.
func noteTail(workload string, pct float64, n int) {
	fmt.Fprintf(os.Stderr, "perfbench: %s op_tail_ms is p%g of %d samples\n", workload, pct, n)
}

// successRate is the share of attempted ops that passed every check.
func successRate(t Tally) float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Attempted-t.Failed) / float64(t.Attempted)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
