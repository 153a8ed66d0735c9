// Command ac3perf is the repository's benchmark: it runs one named
// AC2T workload repeatedly through engine.New and (*Engine).Run in this
// process and reports the engine's end-to-end cost per AC2T, or, with
// --trace 1, that cost split across the repository's layers.
//
// Usage (through run.sh, which builds it first):
//
//	bash ac3perf/run.sh --workload ac3wn|ac3wn-batched|htlc \
//	    [--seed 42] [--seconds 25] [--trace 0|1]
//
// --trace 0 runs the workload once with one engine worker and once
// with nproc workers to warm up, repeats it with nproc workers for
// --seconds, then starts setupProbes short processes to time set-up.
// It prints the end-to-end metrics: host metrics as the median over
// the repeats or probes, seed-pure metrics from the aggregate.
// --trace 1 makes the same runs without the probes, then one more run
// under a CPU profile, and prints the per-layer metrics. Every
// run's aggregate must be byte-identical (fingerprint), every AC2T
// graded and none failed; otherwise the result says correct=false and
// the command exits 1. The last line of standard output is the result
// as one JSON object.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
)

// minRuns is the fewest measured runs an invocation makes, however
// short --seconds is.
const minRuns = 3

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(runMain(os.Args[1:], os.Stdout)) }

// runMain is main with its exit code: 0 when the outputs are correct, 1
// when a check failed, 2 when the benchmark could not run.
func runMain(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("ac3perf", flag.ContinueOnError)
	name := fl.String("workload", "ac3wn", "workload: ac3wn, ac3wn-batched or htlc")
	seed := fl.Uint64("seed", 42, "workload seed; the same seed gives the same AC2T stream")
	seconds := fl.Float64("seconds", 25, "how long to repeat the workload")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	isProbe := fl.Bool("probe", false, "internal: run one AC2T per shard and exit (set-up timing)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *isProbe {
		if err := probe(w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "--trace must be 0 or 1")
		return 2
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	fmt.Fprintf(stdout, "ac3perf workload=%s seed=%d txs=%d shards=%d workers=%d nproc=%d gomaxprocs=%d go=%s %s/%s host=%s commit=%s source_sha256=%s\n",
		w.name, *seed, benchTxs, benchShards, nproc, nproc, runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, hostname(), commit(), sourceDigest("."))

	b := &bencher{w: w, seed: *seed, nproc: nproc, out: stdout}
	var res result
	if *traced == 0 {
		res, err = b.endToEnd(*seconds)
	} else {
		res, err = b.layers(*seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ac3perf:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ac3perf:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bencher runs one workload and seed.
type bencher struct {
	w     workload
	seed  uint64
	nproc int
	out   io.Writer
	// problems collects every failed output check.
	problems []string
	// attempted and failed count the AC2Ts of every full-size run.
	attempted, failed int
}

// repeat runs the workload once with one worker and once with nproc
// workers to warm up (the first run at full width pays the page faults
// of heap growth), then with nproc workers until seconds have passed,
// at least minRuns times. It checks all of them against each other and
// returns the measured runs.
func (b *bencher) repeat(seconds float64) ([]run, error) {
	one, err := execute(b.w.config(b.seed, benchTxs, 1), nil)
	if err != nil {
		return nil, err
	}
	warm, err := execute(b.w.config(b.seed, benchTxs, b.nproc), nil)
	if err != nil {
		return nil, err
	}
	var runs []run
	start := time.Now()
	for len(runs) < minRuns || time.Since(start)+runs[len(runs)-1].wall <= time.Duration(seconds*float64(time.Second)) {
		r, err := execute(b.w.config(b.seed, benchTxs, b.nproc), nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	b.check(one, append([]run{one, warm}, runs...))
	fmt.Fprintf(b.out, "runs: 1 with 1 worker (%.2fs), warm-up with %d (%.2fs), %d measured (wall s: %s), aggregate %.16s\n",
		one.wall.Seconds(), b.nproc, warm.wall.Seconds(), len(runs), joinSeconds(runs), runs[0].fingerprint)
	return runs, nil
}

// check compares the runs with ref and adds their failed output
// checks and AC2T counts.
func (b *bencher) check(ref run, runs []run) {
	b.problems = append(b.problems, checkRuns(b.w, ref, runs)...)
	for _, r := range runs {
		failed, _ := failures(b.w, r.agg)
		b.attempted += r.agg.Txs
		b.failed += failed
	}
}

// endToEnd measures the --trace 0 metrics.
func (b *bencher) endToEnd(seconds float64) (result, error) {
	runs, err := b.repeat(seconds)
	if err != nil {
		return result{}, err
	}
	setup, err := measureSetup(b.w, b.seed)
	if err != nil {
		return result{}, err
	}
	host := map[string][]float64{"setup_s": setup}
	for _, r := range runs {
		graded := float64(r.agg.Graded)
		host["ac2t_per_s"] = append(host["ac2t_per_s"], graded/r.wall.Seconds())
		host["cpu_ms_per_ac2t"] = append(host["cpu_ms_per_ac2t"], ratio(float64(r.cpu)/1e6, graded))
		host["allocs_per_ac2t"] = append(host["allocs_per_ac2t"], ratio(float64(r.mallocs), graded))
		host["alloc_bytes_per_ac2t"] = append(host["alloc_bytes_per_ac2t"], ratio(float64(r.allocBytes), graded))
		host["peak_heap_mib"] = append(host["peak_heap_mib"], float64(r.peakHeap)/(1<<20))
	}
	pure := seedPure(b.w, runs[0].agg)
	vals := map[string]float64{}
	for _, m := range endToEnd {
		if xs, ok := host[m.name]; ok {
			vals[m.name] = median(xs)
			fmt.Fprintf(b.out, "%-22s %14.6g %-9s host: median of %d, min %.6g, max %.6g\n",
				m.name, vals[m.name], m.unit, len(xs), slices.Min(xs), slices.Max(xs))
		} else {
			vals[m.name] = pure[m.name]
			fmt.Fprintf(b.out, "%-22s %14.6g %-9s seed-pure\n", m.name, vals[m.name], m.unit)
		}
	}
	b.reportFailures(runs[0])
	return b.result(vals, endToEnd), nil
}

// layers measures the --trace 1 metrics.
func (b *bencher) layers(seconds float64) (result, error) {
	runs, err := b.repeat(seconds)
	if err != nil {
		return result{}, err
	}
	var prof bytes.Buffer
	traced, err := execute(b.w.config(b.seed, benchTxs, b.nproc), &prof)
	if err != nil {
		return result{}, err
	}
	b.check(runs[0], []run{traced})
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	symbols := []string{mallocSymbol}
	for _, e := range entryPoints {
		symbols = append(symbols, e.symbol)
	}
	a := attribute(samples, symbols)
	var selfSum int64
	for _, ns := range a.selfNs {
		selfSum += ns
	}
	if a.totalNs == 0 || selfSum != a.totalNs {
		b.problems = append(b.problems, fmt.Sprintf("profile: self times sum to %dns of %dns", selfSum, a.totalNs))
	}

	graded := float64(traced.agg.Graded)
	msPer := func(ns int64) float64 { return ratio(float64(ns)/1e6, graded) }
	vals := seedPure(b.w, runs[0].agg)
	vals["cpu.total_ms_per_ac2t"] = msPer(a.totalNs)
	for _, l := range selfLayers {
		vals["cpu."+l+".self_ms_per_ac2t"] = msPer(a.selfNs[l])
	}
	for _, e := range entryPoints {
		vals["call."+e.pkg+"."+e.fn+".ms_per_ac2t"] = msPer(a.inclusiveNs[e.symbol])
	}
	vals["cpu.alloc_ms_per_ac2t"] = msPer(a.inclusiveNs[mallocSymbol])
	walls := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = r.wall.Seconds()
	}
	vals["trace.overhead_pct"] = 100 * (traced.wall.Seconds()/median(walls) - 1)

	fmt.Fprintf(b.out, "profiled run: %d samples, %.2fs wall, %.2fs CPU (getrusage), %.2fs CPU profiled\n",
		len(samples), traced.wall.Seconds(), traced.cpu.Seconds(), float64(a.totalNs)/1e9)
	for _, m := range perLayer() {
		share := ""
		if strings.HasPrefix(m.name, "cpu.") || strings.HasPrefix(m.name, "call.") {
			share = fmt.Sprintf("%5.1f%% of profiled CPU", 100*ratio(vals[m.name], vals["cpu.total_ms_per_ac2t"]))
		}
		fmt.Fprintf(b.out, "%-40s %14.6g %-9s %s\n", m.name, vals[m.name], m.unit, share)
	}
	b.reportFailures(runs[0])
	return b.result(vals, perLayer()), nil
}

// reportFailures prints the failure accounting of one run.
func (b *bencher) reportFailures(r run) {
	failed, hazard := failures(b.w, r.agg)
	fmt.Fprintf(b.out, "per run: attempted %d, failed %d, expiry hazard %d (HTLC AC2Ts stuck past a timelock, %d of them in the crash scenario), failed_share incl. hazard %.4f\n",
		r.agg.Txs, failed, hazard, min(hazard, r.agg.ByScenario[engine.ScenarioCrash].Stuck), float64(failed+hazard)/float64(r.agg.Txs))
	for _, p := range b.problems {
		fmt.Fprintln(b.out, "CHECK FAILED:", p)
	}
}

// result assembles the result line from the metric values.
func (b *bencher) result(vals map[string]float64, defs []metric) result {
	res := result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range defs {
		res.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func joinSeconds(runs []run) string {
	parts := make([]string, len(runs))
	for i, r := range runs {
		parts[i] = fmt.Sprintf("%.2f", r.wall.Seconds())
	}
	return strings.Join(parts, " ")
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

// commit is the VCS revision the binary was built from, when it was
// built inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

// sourceDigest hashes the Go sources and module files under root, so
// runs of a tree without VCS metadata still name the code they
// measured. Hidden directories (.git, build output) are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
