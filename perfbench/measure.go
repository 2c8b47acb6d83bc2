package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad who or address
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the machine's CPU time so far from /proc/stat: the ticks
// the hypervisor stole from this virtual machine, and all ticks. It returns
// zeros where /proc/stat is missing.
func hostTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64) // a malformed field counts as zero
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// liveHeap forces a collection and returns the heap it found live.
func liveHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// runtimeStats is a reading of the Go runtime's cumulative counters.
type runtimeStats struct {
	allocBytes, gcCycles uint64
	gcCPU                float64 // seconds
	pauses               *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		pauses:     s[3].Value.Float64Histogram(),
	}
}

// pauseQuantile reads the q-quantile of the GC pauses between two readings,
// from the runtime's pause histogram: the upper bound of its bucket, in
// seconds, or the lower bound of an unbounded last bucket.
func pauseQuantile(a, b runtimeStats, q float64) float64 {
	counts := make([]uint64, len(b.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			if up := b.pauses.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return b.pauses.Buckets[i]
		}
	}
	return 0
}

// quantile is the nearest-rank q-quantile of ds, in milliseconds. It sorts
// ds in place.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ms(ds[max(i, 0)])
}

// blocks is how many blocks of consecutive calls a latency is split into,
// at most: a block holds at least a wave's worth of calls.
const blocks = 40

// fastestBlock splits the latencies, in the order the calls were made, into
// blocks of consecutive calls and returns the lowest of the blocks' medians,
// with the block count. The host's speed changes from one second to the
// next; the program's own time is what the fastest stretch of the run still
// pays, while the slower stretches add what the host took.
func fastestBlock(ds []time.Duration) (float64, int) {
	n := max(min(blocks, len(ds)/wave), 1)
	best := math.Inf(1)
	for b := 0; b < n; b++ {
		if p := append([]time.Duration(nil), ds[b*len(ds)/n:(b+1)*len(ds)/n]...); len(p) > 0 {
			best = min(best, quantile(p, 0.5))
		}
	}
	if math.IsInf(best, 1) {
		return 0, 0
	}
	return best, n
}

// pooled is the q-quantile of all the samples.
func pooled(ds []time.Duration, q float64) float64 {
	return quantile(append([]time.Duration(nil), ds...), q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// blockRates splits the sessions, in order of completion, into blocks of
// size sessions and returns, per block, the sessions per second and the
// process CPU time per session, in milliseconds.
func blockRates(start mark, ends []mark, size int) (rates, cpuMS []float64) {
	sorted := append([]mark(nil), ends...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at.Before(sorted[j].at) })
	prev := start
	for hi := size; hi <= len(sorted); hi += size {
		end := sorted[hi-1]
		rates = append(rates, float64(size)/end.at.Sub(prev.at).Seconds())
		cpuMS = append(cpuMS, ms(end.cpu-prev.cpu)/float64(size))
		prev = end
	}
	return rates, cpuMS
}
