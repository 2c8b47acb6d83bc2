// Command perfbench is the repository's session benchmark. It drives the
// serving stack through its real front doors, the HTTP handler of
// internal/server on a loopback socket and the embedded crowdtopk/sdk, from
// a closed loop of simulated crowd dispatchers in the same process. Run it
// from the repository root:
//
//	bash perfbench/run.sh --workload short-catalog --seed 1 --seconds 25 --trace 0
//
// Every run is a fresh process, because the π cache, the live-engine
// counters and the heap are process-wide. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics;
// the lines before it name the revision, Go version, GOMAXPROCS and CPU
// count, state that the load generator shares the process, print every
// metric with its unit and sample count, and give the share of the
// machine's CPU time the hypervisor stole during the timed phase.
//
// # Workloads
//
// A run does a fixed amount of work: --seconds times the session rate a
// workload runs at on a 2-vCPU host, on inputs generated from --seed alone,
// never a time window. All three are closed loops with one client that
// waits for every reply, as a crowd dispatcher does.
//
//   - short-catalog: HTTP on loopback; N=12, K=3, budget 16, the
//     default strategy (T1-on) and a perfect crowd. Sessions rotate through
//     a 16-dataset catalog, re-sent as identical wire specs. Create and the
//     codec dominate, and any reuse keyed on dataset content hits only here.
//   - short-distinct: the same, with a fresh dataset for every session: the
//     case that bypasses dataset reuse, which must show no change here.
//   - long-noisy-durable: the sdk, holding waves of 16 sessions answered
//     round-robin; N=20, K=5, budget 120, a crowd right 80% of the time and
//     sessions told so, so answers reweight rather than prune. A file store with fsync=always backs it; each wave closes and
//     reopens the client at half budget, so every session hydrates once.
//
// Datasets follow the loadgen subcommand's geometry and come in antithetic
// pairs (the second mirrors the first one's jitter), which keeps the work a
// seed asks for nearly constant: the held-out seed 1000003, never used
// while tuning, builds within a few percent of seed 1's orderings.
//
// # End-to-end metrics
//
// The result line reports what a run's user pays that the host's speed does
// not move, plus the set-up time:
//
//   - setup_s: building the front door, opening a fresh data directory on
//     the durable workload, and playing one warm-up wave of 16 sessions,
//     one per catalog dataset; a run sets up fifteen times and reports the
//     median.
//   - alloc_kb_per_session: bytes the heap allocated in the timed phase;
//     retained_kb_per_session: live heap growth across it after forced
//     collections, per deleted session; resident_kb_per_open_session: the
//     live heap the warm-up wave holds open, per session, after its first
//     answers.
//   - topk_quality: one minus the paper's normalized distance from each
//     served top-K to the true one, averaged; questions_per_session: the
//     crowd cost. Both repeat exactly for a seed.
//   - ok_ratio: one minus failed calls over attempted calls.
//
// topk_quality and ok_ratio are the complements of topk_distance and
// failed_ratio, which are 0 on a healthy run, and a metric reported as a
// share of its median must not be 0. The table prints the distance and the
// failure counts beside them.
//
// The table also prints the timed phase's latencies and throughput, but the
// result line leaves them out: create_p50_ms, questions_p50_ms,
// answers_p50_ms and resume_p50_ms split each kind of call, in the order
// the calls were made, into 40 blocks of consecutive calls (fewer where a
// block would hold under 16 calls: on the durable workload a create or
// resume block is one wave) and give the lowest block median;
// sessions_per_s and cpu_ms_per_session (process CPU time, the load
// generator's share included) are medians over blocks of sessions (waves
// on the durable workload); create_p90_ms, questions_p99_ms and
// answers_p99_ms are pooled over the run. resume_p50_ms is the first call
// on each session after the reopen on the durable workload, and the first
// questions call after the create on the short ones; those calls are not
// in questions_*. On a shared 2-vCPU virtual machine the host's speed
// changes by a quarter and more from one minute to the next, every call of
// a run in step, CPU time included: over ten seeds on one such host even
// the fastest block's median spread up to 0.27 (interquartile range over
// median), more than the widest bound a regression check allows, and a run
// that wholly falls in a slow minute cannot be told from a slower program.
// Compare these figures between two commits in alternating pairs of runs,
// not against a bound.
//
// A run is correct when every session ended converged or exhausted with K
// distinct tuples, no call failed, and eight sessions spread over the run
// served exactly the result, state and answer count of a direct
// crowdtopk.NewSession replay of the same answer script.
//
// # Traced run
//
// With --trace 1 a run plays the timed sessions untraced, reading the
// layers' counters (π cache, live selection engine, store and durable
// backend, Go runtime) around that pass, then replays a sample of the same
// scripts one layer boundary at a time: the top front door, the sdk,
// internal/session, pcache.Prewarm with tpo.Build, and on the durable
// workload persist.File Put and Get. Each call is a span of the
// benchmark's own, with name, start, end, parent and the script's index;
// the spans are written to .bench_build/traces when the run ends. A layer's
// self time is its lifecycle time on a script minus that of the layers
// below it on the same script. trace.layer_coverage adds the self times up,
// a negative one counted as zero, over the top layer's traced lifecycle: the
// benchmark's own work between calls takes it below 1 and a negative self
// time, a call timed in the wrong layer, above 1. Outside 0.9 to 1.1 the run
// is not correct. The same sample also runs through the front door with the
// service's own tracer off and on, in alternating order;
// obs.trace_overhead_ratio is the CPU time of the second over the first,
// and obs.<component>_self_ms_per_session is that tracer's self time per
// component. The run prints the per-layer table with the end-to-end metric
// each figure should move, and on which workloads; some of those are the
// times the end-to-end run prints but does not report.
package main
