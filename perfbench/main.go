package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Set at build time by run.sh.
var (
	revision     = "none"
	sourceDigest = "none"
)

// setups is how many times a run sets up its front door; setup_s is the
// median.
const setups = 15

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: short-catalog, short-distinct or long-noisy-durable")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "run length; a run does a fixed number of sessions per second of it")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 replays the sessions layer by layer and reports per-layer metrics")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name string, seed int64, seconds int, trace bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	sessions := w.rate * seconds
	if w.durable {
		sessions = (sessions + wave - 1) / wave * wave // whole waves
	}
	in, err := generate(w, seed, sessions)
	if err != nil {
		return err
	}
	if w.http {
		if err := in.encodeBodies(); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d sessions=%d trace=%t\n", w.name, seed, len(in.Timed), trace)
	fmt.Fprintf(out, "# revision=%s source=%s go=%s gomaxprocs=%d cpus=%d os=%s/%s\n",
		revision, sourceDigest, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "# the load generator runs in the measured process and shares its CPUs\n")

	var res *result
	if trace {
		res, err = runTraced(out, w, in)
	} else {
		res, err = runEndToEnd(out, w, in)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runEndToEnd sets up the workload's front door several times, then plays
// the timed sessions through the last one and reports the end-to-end
// metrics.
func runEndToEnd(out io.Writer, w workload, in *inputs) (*result, error) {
	var setupS, resident []float64
	var d door
	for i := 0; i < setups; i++ {
		di, el, res, err := setup(w, in)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, el.Seconds())
		resident = append(resident, res)
		if i < setups-1 {
			closeDoor(di)
		} else {
			d = di
		}
	}
	defer closeDoor(d)

	p := measurePhase(w, in, d)
	n := float64(len(in.Timed))
	qual, asked := quality(in, in.Timed, p.res)
	checkErr := checkResults(in, in.Timed, p.res)

	c := p.calls
	v := map[string]float64{
		"setup_s":                      median(setupS),
		"alloc_kb_per_session":         float64(p.rt1.allocBytes-p.rt0.allocBytes) / 1024 / n,
		"retained_kb_per_session":      float64(p.retained) / 1024 / n,
		"resident_kb_per_open_session": median(resident) / 1024,
		"topk_quality":                 qual,
		"questions_per_session":        asked,
		"ok_ratio":                     1 - float64(c.failed)/float64(c.attempted),
	}
	samples := map[string]string{
		"setup_s":      fmt.Sprintf("median of %d set-ups", setups),
		"ok_ratio":     fmt.Sprintf("failed=%d attempted=%d", c.failed, c.attempted),
		"topk_quality": fmt.Sprintf("topk_distance=%.6f", 1-qual),
	}
	m := map[string]metric{}
	rows := [][]string{{"metric", "value", "unit", "samples"}}
	for _, e := range endToEndMetrics {
		m[e.name] = metric{v[e.name], e.unit}
		rows = append(rows, []string{e.name, fmt.Sprintf("%.6g", v[e.name]), e.unit, samples[e.name]})
	}
	// The times below are printed but not reported. The host's speed
	// changes by a quarter and more from one minute to the next, with every
	// call of a run in step, so between runs of the same code they move by
	// more than a regression bound; see doc.go.
	for _, t := range []struct {
		name string
		ds   []time.Duration
	}{
		{"create_p50_ms", c.create},
		{"questions_p50_ms", c.questions},
		{"answers_p50_ms", c.answers},
		{"resume_p50_ms", c.resume},
	} {
		v, nb := fastestBlock(t.ds)
		rows = append(rows, []string{t.name, fmt.Sprintf("%.6g", v), "ms", fmt.Sprintf("n=%d, fastest of %d block medians; not reported", len(t.ds), nb)})
	}
	rows = append(rows,
		[]string{"sessions_per_s", fmt.Sprintf("%.6g", median(p.rate)), "1/s", fmt.Sprintf("median of %d blocks; not reported", len(p.rate))},
		[]string{"cpu_ms_per_session", fmt.Sprintf("%.6g", median(p.cpuMS)), "ms", fmt.Sprintf("median of %d blocks; not reported", len(p.cpuMS))})
	for _, t := range []struct {
		name string
		ss   []time.Duration
		q    float64
	}{
		{"create_p90_ms", c.create, 0.90},
		{"questions_p99_ms", c.questions, 0.99},
		{"answers_p99_ms", c.answers, 0.99},
	} {
		rows = append(rows, []string{t.name, fmt.Sprintf("%.6g", pooled(t.ss, t.q)), "ms", fmt.Sprintf("n=%d, pooled; not reported", len(t.ss))})
	}
	printTable(out, rows)
	fmt.Fprintf(out, "# the hypervisor stole %.1f%% of the machine's CPU time during the timed phase\n", 100*p.steal)
	if checkErr != nil {
		fmt.Fprintf(out, "# output check failed: %v\n", checkErr)
	}
	return &result{Correct: checkErr == nil && c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// endToEndMetric is one metric a user of the system would see.
type endToEndMetric struct{ name, unit, better string }

// endToEndMetrics lists the end-to-end metrics in the order BENCHMARK.json
// gives them.
var endToEndMetrics = []endToEndMetric{
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_session", "KiB", "lower"},
	{"retained_kb_per_session", "KiB", "lower"},
	{"resident_kb_per_open_session", "KiB", "lower"},
	{"topk_quality", "1", "higher"},
	{"questions_per_session", "1", "lower"},
	{"ok_ratio", "1", "higher"},
}

// phase is one timed pass over the timed scripts.
type phase struct {
	res      []sessionResult
	calls    *calls
	rt0, rt1 runtimeStats
	retained int64     // live heap growth across the pass, after forced collections
	steal    float64   // share of the machine's CPU time the hypervisor stole
	rate     []float64 // sessions per second, per block
	cpuMS    []float64 // process CPU time per session, per block
}

func measurePhase(w workload, in *inputs, d door) phase {
	var p phase
	live0 := liveHeap()
	p.rt0 = readRuntime()
	steal0, total0 := hostTicks()
	start := now()
	if w.durable {
		p.calls = &calls{}
		p.res = runWaves(d.(durableDoor), w.shape, in.Timed, p.calls)
	} else {
		p.res, p.calls = runClosed(d, w.shape, in.Timed)
	}
	if steal1, total1 := hostTicks(); total1 > total0 {
		p.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	p.rt1 = readRuntime()
	p.retained = liveHeap() - live0

	size := max(len(in.Timed)/blocks, 1)
	if w.durable {
		size = wave
	}
	ends := make([]mark, len(p.res))
	for i := range p.res {
		ends[i] = p.res[i].end
	}
	p.rate, p.cpuMS = blockRates(start, ends, size)
	return p
}

// printTable writes rows as left-aligned columns, padded to the widest
// cell in each column, with a rule under the header row.
func printTable(out io.Writer, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	line := func(r []string) {
		var b strings.Builder
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(r)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(out, b.String())
	}
	line(rows[0])
	rule := make([]string, len(widths))
	for i, wd := range widths {
		rule[i] = strings.Repeat("-", wd)
	}
	line(rule)
	for _, r := range rows[1:] {
		line(r)
	}
}
