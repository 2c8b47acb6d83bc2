package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"crowdtopk/internal/obs"
	"crowdtopk/internal/par"
	"crowdtopk/internal/pcache"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/selection"
	"crowdtopk/internal/session"
	"crowdtopk/internal/tpo"
)

// The traced run. It first plays the timed sessions untraced, exactly as
// the end-to-end run does, and reads the layers' own counters around that
// pass. It then replays a sample of the same session scripts one layer
// boundary at a time — the top front door, the sdk, internal/session,
// tpo.Build with pcache.Prewarm, and on the durable workload persist.File
// — timing every call it makes as a span of its own. A layer's self time is
// its lifecycle time minus that of the layer below on the same script.

// replaySessions is how many scripts the traced run replays layer by layer:
// enough for ten samples beyond the p99 of session.SubmitAnswer.
func replaySessions(w workload) int {
	if w.durable {
		return 32
	}
	return 200
}

// replayGarbage is how many bytes the layer-by-layer replays allocate
// between two collections.
const replayGarbage = 64 << 20

// span is one call the benchmark made at a layer boundary. Spans of one
// session script share its index; Parent indexes the enclosing span (-1 for
// a root).
type span struct {
	Name    string `json:"name"`
	Session int    `json:"session"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spans keeps a run's spans in memory until it ends.
type spans struct {
	t0   time.Time
	list []span
}

func (s *spans) start(name string, session, parent int) int {
	s.list = append(s.list, span{Name: name, Session: session, Parent: parent, StartNS: int64(time.Since(s.t0))})
	return len(s.list) - 1
}

func (s *spans) end(i int) { s.list[i].EndNS = int64(time.Since(s.t0)) }

func (s *spans) dur(i int) time.Duration { return time.Duration(s.list[i].EndNS - s.list[i].StartNS) }

// children sums the durations of root's child spans: the time the session
// spent inside the layer, without the benchmark's own work between calls.
func (s *spans) children(root int) time.Duration {
	var d time.Duration
	for i := root + 1; i < len(s.list); i++ {
		if s.list[i].Parent == root {
			d += s.dur(i)
		}
	}
	return d
}

// named collects the durations of every span called name.
func (s *spans) named(name string) []time.Duration {
	var ds []time.Duration
	for i := range s.list {
		if s.list[i].Name == name {
			ds = append(ds, s.dur(i))
		}
	}
	return ds
}

// write stores the spans as JSON lines under the build directory.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDoor times every call into a front door as a child span of the
// session's root span.
type tracedDoor struct {
	inner door
	layer string
	sp    *spans
	root  int
}

func (t *tracedDoor) call(op string, f func() error) error {
	i := t.sp.start(t.layer+"."+op, t.sp.list[t.root].Session, t.root)
	err := f()
	t.sp.end(i)
	return err
}

func (t *tracedDoor) create(sc *script) (id string, err error) {
	err = t.call("create", func() error { id, err = t.inner.create(sc); return err })
	return id, err
}

func (t *tracedDoor) questions(id string) (qs []pair, state string, err error) {
	err = t.call("questions", func() error { qs, state, err = t.inner.questions(id); return err })
	return qs, state, err
}

func (t *tracedDoor) answers(id string, as []answer) error {
	return t.call("answers", func() error { return t.inner.answers(id, as) })
}

func (t *tracedDoor) result(id string) (o outcome, err error) {
	err = t.call("result", func() error { o, err = t.inner.result(id); return err })
	return o, err
}

func (t *tracedDoor) remove(id string) error {
	return t.call("delete", func() error { return t.inner.remove(id) })
}

func (t *tracedDoor) close() { t.inner.close() }

func (t *tracedDoor) reopen() error {
	return t.call("reopen", t.inner.(durableDoor).reopen)
}

func (t *tracedDoor) flush() {
	_ = t.call("flush", func() error { t.inner.(durableDoor).flush(); return nil })
}

// replayDoor plays sc through d as the session's root span layer+".session"
// and returns the root's index and the process CPU time the replay took.
func replayDoor(sp *spans, layer string, d door, w workload, sc *script) (int, time.Duration, error) {
	cpu0 := cpuTime()
	root := sp.start(layer+".session", sc.Index, -1)
	td := &tracedDoor{inner: d, layer: layer, sp: sp, root: root}
	c := &calls{}
	var r sessionResult
	if w.durable {
		res := make([]sessionResult, 1)
		runWave(td, w.shape, []script{*sc}, res, c)
		r = res[0]
	} else {
		r = lifecycle(td, w.shape, sc, c)
	}
	sp.end(root)
	if err := validOutcome(w.shape, &r); err != nil {
		return root, 0, fmt.Errorf("%s replay of session %d: %w", layer, sc.Index, err)
	}
	return root, cpuTime() - cpu0, nil
}

// replaySession plays sc through internal/session directly, with the worker
// budget a service gives its sessions.
func replaySession(sp *spans, in *inputs, sc *script, pool *par.Budget) (int, error) {
	dists, err := in.dists(sc.Dataset)
	if err != nil {
		return 0, err
	}
	root := sp.start("session.session", sc.Index, -1)
	call := func(name string, f func() error) error {
		i := sp.start(name, sc.Index, root)
		err := f()
		sp.end(i)
		return err
	}
	var s *session.Session
	err = call("session.new", func() (err error) {
		s, err = session.New(session.Config{
			Dists: dists, K: in.Shape.K, Budget: in.Shape.Budget,
			Reliability: in.Shape.Reliability, Seed: sc.Seed, Pool: pool,
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	cr := newCrowd(sc, in.Shape.Accuracy)
	for {
		var qs []tpo.Question
		var st session.Status
		if err := call("session.next", func() (err error) { qs, st, err = s.NextQuestions(0); return err }); err != nil {
			return 0, err
		}
		if st.State.Terminal() || len(qs) == 0 {
			break
		}
		for _, q := range qs {
			a := cr.answer(pair{q.I, q.J})
			if err := call("session.submit", func() error {
				return s.SubmitAnswer(tpo.Answer{Q: q, Yes: a.Yes})
			}); err != nil {
				return 0, err
			}
		}
	}
	_ = call("session.result", func() error { s.Result(); return nil })
	sp.end(root)
	return root, nil
}

// buildStats is what one direct tpo.Build replay cost.
type buildStats struct {
	leaves         int
	allocs, allocB uint64
}

// replayBuild times what session.New does before planning: pcache.Prewarm
// on fresh distributions, then tpo.Build, with the worker share a service
// grants an idle session.
func replayBuild(sp *spans, in *inputs, sc *script, pool *par.Budget) (buildStats, error) {
	dists, err := in.dists(sc.Dataset)
	if err != nil {
		return buildStats{}, err
	}
	workers := pool.Acquire(0)
	defer pool.Release(workers)
	root := sp.start("tpo.session", sc.Index, -1)
	i := sp.start("pcache.prewarm", sc.Index, root)
	pcache.Prewarm(dists, workers)
	sp.end(i)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	i = sp.start("tpo.build", sc.Index, root)
	tree, err := tpo.Build(dists, in.Shape.K, tpo.BuildOptions{Workers: workers})
	sp.end(i)
	runtime.ReadMemStats(&m1)
	sp.end(root)
	if err != nil {
		return buildStats{}, err
	}
	return buildStats{leaves: tree.NumLeaves(), allocs: m1.Mallocs - m0.Mallocs, allocB: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// persistStats is what one direct persist.File replay cost.
type persistStats struct {
	bytes int64 // on disk when the session finished
}

// replayPersist drives persist.File the way the service's persister does:
// a Put after the create and after every answer, and at half budget a Get
// that rebuilds the session from snapshot plus WAL, which carries on.
func replayPersist(sp *spans, in *inputs, sc *script, pool *par.Budget) (persistStats, error) {
	dir, err := dataDir()
	if err != nil {
		return persistStats{}, err
	}
	defer os.RemoveAll(dir) // throwaway data under the build directory
	store, err := persist.NewFile(persist.FileOptions{Dir: dir, Sync: persist.SyncAlways, Pool: pool})
	if err != nil {
		return persistStats{}, err
	}
	defer store.Close()
	dists, err := in.dists(sc.Dataset)
	if err != nil {
		return persistStats{}, err
	}
	s, err := session.New(session.Config{
		Dists: dists, K: in.Shape.K, Budget: in.Shape.Budget,
		Reliability: in.Shape.Reliability, Seed: sc.Seed, Pool: pool,
	})
	if err != nil {
		return persistStats{}, err
	}
	id := fmt.Sprintf("s%d", sc.Index)
	root := sp.start("persist.session", sc.Index, -1)
	put := func() error {
		i := sp.start("persist.put", sc.Index, root)
		err := store.Put(id, s)
		sp.end(i)
		return err
	}
	if err := put(); err != nil {
		return persistStats{}, err
	}
	cr := newCrowd(sc, in.Shape.Accuracy)
	for answered, resumed := 0, false; ; {
		if !resumed && answered >= in.Shape.Budget/2 {
			i := sp.start("persist.get", sc.Index, root)
			s, err = store.Get(id)
			sp.end(i)
			if err != nil {
				return persistStats{}, err
			}
			resumed = true
		}
		qs, st, err := s.NextQuestions(0)
		if err != nil {
			return persistStats{}, err
		}
		if st.State.Terminal() || len(qs) == 0 {
			break
		}
		for _, q := range qs {
			a := cr.answer(pair{q.I, q.J})
			if err := s.SubmitAnswer(tpo.Answer{Q: q, Yes: a.Yes}); err != nil {
				return persistStats{}, err
			}
			if err := put(); err != nil {
				return persistStats{}, err
			}
			answered++
		}
	}
	sp.end(root)
	var ps persistStats
	err = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			ps.bytes += info.Size()
		}
		return err
	})
	return ps, err
}

// spanSelf reads the service tracer's per-component self time so far, in
// seconds, from the metrics exposition.
func spanSelf() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	const prefix = `crowdtopk_span_self_seconds_sum{component="`
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		comp, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		out[comp] = v
	}
	return out, nil
}

// layerMetric is one per-layer metric and the end-to-end metrics it should
// move, on the workloads named.
type layerMetric struct {
	name, unit, better, moves, on string
}

// layerMetrics is the per-layer metric map: BENCHMARK.json lists the same
// names in the same order, and the traced run prints it as its table.
var layerMetrics = []layerMetric{
	{"server.codec_ms_per_session", "ms", "lower", "questions_p50_ms answers_p50_ms sessions_per_s", "short-*"},
	{"server.bytes_per_session", "B", "lower", "questions_p50_ms answers_p50_ms sessions_per_s", "short-*"},
	{"service.self_ms_per_session", "ms", "lower", "questions_p50_ms answers_p50_ms", "short-*"},
	{"service.hydrations_per_session", "1", "lower", "resume_p50_ms", "long-noisy-durable"},
	{"service.persist_retries", "count", "lower", "ok_ratio", "long-noisy-durable"},
	{"service.persist_errors", "count", "lower", "ok_ratio", "long-noisy-durable"},
	{"session.self_ms_per_session", "ms", "lower", "cpu_ms_per_session", "all"},
	{"session.new_ms_p50", "ms", "lower", "create_p50_ms", "all"},
	{"session.next_ms_p50", "ms", "lower", "questions_p50_ms", "long-noisy-durable"},
	{"session.submit_ms_p50", "ms", "lower", "answers_p50_ms", "long-noisy-durable"},
	{"session.submit_ms_p99", "ms", "lower", "answers_p99_ms", "long-noisy-durable"},
	{"tpo.build_ms_p50", "ms", "lower", "create_p50_ms sessions_per_s", "short-*"},
	{"tpo.build_alloc_kb", "KiB", "lower", "alloc_kb_per_session", "short-*"},
	{"tpo.build_allocs", "count", "lower", "alloc_kb_per_session", "short-*"},
	{"tpo.leaves_per_tree", "count", "lower", "create_p50_ms", "short-*"},
	{"tpo.build_share_of_create", "1", "lower", "create_p50_ms", "short-*"},
	{"pcache.hit_ratio", "1", "higher", "create_p50_ms", "short-catalog vs short-distinct"},
	{"pcache.prewarm_ms_per_create", "ms", "lower", "create_p50_ms", "short-catalog vs short-distinct"},
	{"pcache.entries_end", "count", "lower", "retained_kb_per_session", "short-*"},
	{"selection.reuse_ratio", "1", "higher", "answers_p50_ms", "long-noisy-durable"},
	{"selection.patches_per_answer", "1", "higher", "answers_p50_ms", "long-noisy-durable"},
	{"selection.resyncs_per_session", "1", "lower", "answers_p99_ms", "long-noisy-durable"},
	{"selection.compactions_per_session", "1", "lower", "answers_p99_ms", "long-noisy-durable"},
	{"persist.put_ms_p50", "ms", "lower", "cpu_ms_per_session sessions_per_s", "long-noisy-durable"},
	{"persist.wal_appends_per_answer", "1", "lower", "cpu_ms_per_session sessions_per_s", "long-noisy-durable"},
	{"persist.fsyncs_per_session", "1", "lower", "cpu_ms_per_session sessions_per_s", "long-noisy-durable"},
	{"persist.snapshots_per_session", "1", "lower", "cpu_ms_per_session sessions_per_s", "long-noisy-durable"},
	{"persist.bytes_per_session", "KiB", "lower", "cpu_ms_per_session sessions_per_s", "long-noisy-durable"},
	{"persist.drain_ms", "ms", "lower", "sessions_per_s", "long-noisy-durable"},
	{"persist.get_ms_p50", "ms", "lower", "resume_p50_ms", "long-noisy-durable"},
	{"persist.replays_per_resume", "1", "lower", "resume_p50_ms", "long-noisy-durable"},
	{"runtime.gc_cycles_per_session", "1", "lower", "questions_p99_ms answers_p99_ms cpu_ms_per_session", "all"},
	{"runtime.gc_cpu_share", "1", "lower", "questions_p99_ms answers_p99_ms cpu_ms_per_session", "all"},
	{"runtime.gc_pause_p99_us", "us", "lower", "questions_p99_ms answers_p99_ms", "short-*"},
	{"obs.http_self_ms_per_session", "ms", "lower", "questions_p50_ms answers_p50_ms", "short-*"},
	{"obs.service_self_ms_per_session", "ms", "lower", "questions_p99_ms answers_p99_ms", "all"},
	{"obs.session_self_ms_per_session", "ms", "lower", "create_p50_ms", "all"},
	{"obs.selection_self_ms_per_session", "ms", "lower", "answers_p50_ms", "all"},
	{"obs.persist_self_ms_per_session", "ms", "lower", "resume_p50_ms", "long-noisy-durable"},
	{"obs.trace_overhead_ratio", "1", "lower", "cpu_ms_per_session", "all"},
	{"trace.layer_coverage", "1", "higher", "(check: layer self times, negatives as 0, over the traced lifecycle; 1 within 0.1)", "all"},
}

// layerSelf is one layer's self time per session, in milliseconds.
type layerSelf struct {
	layer string
	ms    float64
}

// layerCoverage returns how much of the traced lifecycle, lifeMS, the
// layers' self times account for, and an error when that is not 1 within
// 10%. Each self time is a layer's lifecycle on a script minus the layers
// below it, timed in separate replays, so noise or a call timed in the
// wrong layer can make one negative. Coverage counts a negative self time
// as zero, so the benchmark's own work between calls takes it below 1 and a
// negative self time above 1; a plain sum would add up to the lifecycle
// whatever the split.
func layerCoverage(selfs []layerSelf, lifeMS float64) (float64, error) {
	var covered float64
	var negative []string
	for _, l := range selfs {
		covered += max(l.ms, 0)
		if l.ms < 0 {
			negative = append(negative, fmt.Sprintf("%s %.4g ms", l.layer, l.ms))
		}
	}
	c := covered / lifeMS
	if c < 0.9 || c > 1.1 {
		return c, fmt.Errorf("layer self times cover %.3f of the traced lifecycle, not 1 within 10%% (negative: %v)", c, negative)
	}
	return c, nil
}

// counters is a reading of the layers' own process-wide counters.
type counters struct {
	pc  pcache.Snapshot
	sel selection.LiveCounters
	st  doorStats
	rt  runtimeStats
	cpu time.Duration
}

func readCounters(d door) counters {
	c := counters{pc: pcache.Stats(), sel: selection.LiveEngineStats(), rt: readRuntime(), cpu: cpuTime()}
	if sd, ok := d.(*sdkDoor); ok {
		c.st = sd.stats()
	}
	return c
}

func runTraced(out io.Writer, w workload, in *inputs) (*result, error) {
	// The untraced pass: the end-to-end run's timed phase, with the
	// layers' counters read around it.
	d, _, _, err := setup(w, in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var wire0 int64
	if hd, ok := d.(*httpDoor); ok {
		wire0 = hd.wire.Load()
	}
	c0 := readCounters(d)
	p := measurePhase(w, in, d)
	c1 := readCounters(d)
	if hd, ok := d.(*httpDoor); ok {
		wire0 = hd.wire.Load() - wire0
	}
	entriesEnd := pcache.Stats().Entries
	closeDoor(d)
	checkErr := checkResults(in, in.Timed, p.res)

	n := float64(len(in.Timed))
	answers := float64(len(p.calls.answers))
	m := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["server.bytes_per_session"] = float64(wire0) / n
	st := c1.st.minus(c0.st)
	m["service.hydrations_per_session"] = float64(st.hydrations) / n
	m["service.persist_retries"] = float64(st.persistRetries)
	m["service.persist_errors"] = float64(st.persistErrors)
	lookups := float64(c1.pc.Hits + c1.pc.Misses - c0.pc.Hits - c0.pc.Misses)
	m["pcache.hit_ratio"] = ratio(float64(c1.pc.Hits-c0.pc.Hits), lookups)
	m["pcache.prewarm_ms_per_create"] = float64(c1.pc.PrewarmNanos-c0.pc.PrewarmNanos) / 1e6 / n
	m["pcache.entries_end"] = float64(entriesEnd)
	reuses, rebuilds := float64(c1.sel.Reuses-c0.sel.Reuses), float64(c1.sel.Rebuilds-c0.sel.Rebuilds)
	m["selection.reuse_ratio"] = ratio(reuses, reuses+rebuilds)
	m["selection.patches_per_answer"] = ratio(float64(c1.sel.Patches-c0.sel.Patches), answers)
	m["selection.resyncs_per_session"] = float64(c1.sel.Resyncs-c0.sel.Resyncs) / n
	m["selection.compactions_per_session"] = float64(c1.sel.Compactions-c0.sel.Compactions) / n
	m["persist.wal_appends_per_answer"] = ratio(float64(st.persist.WALAppends), answers)
	m["persist.fsyncs_per_session"] = float64(st.persist.Fsyncs) / n
	m["persist.snapshots_per_session"] = float64(st.persist.Snapshots) / n
	m["persist.replays_per_resume"] = ratio(float64(st.persist.Replays), float64(st.hydrations))
	m["persist.drain_ms"] = pooled(p.calls.drain, 0.5)
	m["runtime.gc_cycles_per_session"] = float64(c1.rt.gcCycles-c0.rt.gcCycles) / n
	m["runtime.gc_cpu_share"] = ratio(c1.rt.gcCPU-c0.rt.gcCPU, (c1.cpu - c0.cpu).Seconds())
	m["runtime.gc_pause_p99_us"] = pauseQuantile(c0.rt, c1.rt, 0.99) * 1e6

	// The layer-by-layer replays of a sample of the same scripts.
	sample := in.Timed[:min(len(in.Timed), replaySessions(w))]
	sp := &spans{t0: time.Now()}
	pool := par.NewBudget(0)
	// top is the workload's own front door; plain and traced are the same
	// kind of door with the service tracer off and on, whose CPU time gives
	// the tracing overhead; on the durable workload they are the service
	// core itself, since the sdk cannot carry a tracer.
	var opened []door
	defer func() {
		for _, d := range opened {
			closeDoor(d)
		}
	}()
	open := func(d door, err error) (door, error) {
		if err == nil {
			opened = append(opened, d)
		}
		return d, err
	}
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1, BufferSize: 1})
	var top, plain, traced, sdkMem door
	topLayer := "sdk"
	if w.http {
		topLayer = "http"
		if top, err = open(newHTTPDoor(nil)); err != nil {
			return nil, err
		}
		plain = top
		if traced, err = open(newHTTPDoor(tracer)); err != nil {
			return nil, err
		}
		if sdkMem, err = open(newSDKDoor(in, "")); err != nil {
			return nil, err
		}
	} else {
		var dirs [3]string
		for i := range dirs {
			if dirs[i], err = dataDir(); err != nil {
				return nil, err
			}
		}
		if top, err = open(newSDKDoor(in, dirs[0])); err != nil {
			return nil, err
		}
		if plain, err = open(newServiceDoor(in, dirs[1], nil)); err != nil {
			return nil, err
		}
		if traced, err = open(newServiceDoor(in, dirs[2], tracer)); err != nil {
			return nil, err
		}
	}

	self0, err := spanSelf()
	if err != nil {
		return nil, err
	}
	// replayed is one sample session's replays; replay plays every layer
	// of one script and keeps its figures only if every layer finished it,
	// so a session the program fails on leaves no partial figures behind.
	type replayed struct {
		top, sdk, sess      int // root spans
		cpuPlain, cpuTraced time.Duration
		build               buildStats
		disk                persistStats
	}
	replay := func(i int, sc *script) (r replayed, err error) {
		// The front doors with the service tracer off and on alternate which
		// goes first, so drift in the shared host favours neither. On the
		// short workloads the untraced one is the top door itself.
		pair := [2]door{plain, traced}
		if i%2 == 1 {
			pair = [2]door{traced, plain}
		}
		for _, d := range pair {
			layer := "traced"
			if d == plain {
				layer = "plain"
				if plain == top {
					layer = topLayer
				}
			}
			root, cpu, err := replayDoor(sp, layer, d, w, sc)
			if err != nil {
				return r, err
			}
			if d == traced {
				r.cpuTraced = cpu
			} else {
				r.cpuPlain, r.top = cpu, root
			}
		}
		if plain != top {
			if r.top, _, err = replayDoor(sp, topLayer, top, w, sc); err != nil {
				return r, err
			}
		}
		r.sdk = r.top
		if w.http {
			if r.sdk, _, err = replayDoor(sp, "sdk", sdkMem, w, sc); err != nil {
				return r, err
			}
		}
		if r.sess, err = replaySession(sp, in, sc, pool); err != nil {
			return r, err
		}
		if r.build, err = replayBuild(sp, in, sc, pool); err != nil {
			return r, err
		}
		if w.durable {
			r.disk, err = replayPersist(sp, in, sc, pool)
		}
		return r, err
	}
	var rs []replayed
	var replayErr error
	// The replays run with the collector paused and collect between
	// scripts once replayGarbage bytes have piled up, so a collection that
	// one layer's garbage starts is not charged to whichever layer happens
	// to be running. The runtime layer's figures come from the untraced
	// pass.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	collected := readRuntime().allocBytes
	for i := range sample {
		if a := readRuntime().allocBytes; a-collected > replayGarbage {
			runtime.GC()
			collected = a
		}
		mark := len(sp.list)
		r, err := replay(i, &sample[i])
		if err != nil {
			sp.list = sp.list[:mark]
			replayErr = errors.Join(replayErr, fmt.Errorf("replay of session %d: %w", sample[i].Index, err))
			continue
		}
		rs = append(rs, r)
	}
	self1, err := spanSelf()
	if err != nil {
		return nil, err
	}

	k := float64(max(len(rs), 1))
	total := func(name string) float64 {
		var t time.Duration
		for _, d := range sp.named(name) {
			t += d
		}
		return ms(t)
	}
	var topMS, sdkMS, sessMS, rootMS float64
	for _, r := range rs {
		topMS += ms(sp.children(r.top)) / k
		sdkMS += ms(sp.children(r.sdk)) / k
		sessMS += ms(sp.children(r.sess)) / k
		rootMS += ms(sp.dur(r.top)) / k
	}
	buildMS := total("tpo.build") / k
	prewarmMS := total("pcache.prewarm") / k
	getMS := total("persist.get") / k

	selfs := []layerSelf{
		{"server", topMS - sdkMS},
		{"service", sdkMS - sessMS - getMS},
		{"session", sessMS - buildMS - prewarmMS},
		{"pcache", prewarmMS},
		{"tpo", buildMS},
		{"persist", getMS},
	}
	m["server.codec_ms_per_session"] = selfs[0].ms
	m["service.self_ms_per_session"] = selfs[1].ms
	m["session.self_ms_per_session"] = selfs[2].ms
	var coverageErr error
	m["trace.layer_coverage"], coverageErr = layerCoverage(selfs, rootMS)

	q := func(name string, p float64) float64 { return quantile(sp.named(name), p) }
	m["session.new_ms_p50"] = q("session.new", 0.5)
	m["session.next_ms_p50"] = q("session.next", 0.5)
	m["session.submit_ms_p50"] = q("session.submit", 0.5)
	m["session.submit_ms_p99"] = q("session.submit", 0.99)
	m["tpo.build_ms_p50"] = q("tpo.build", 0.5)
	var leaves, allocs, allocB, diskB float64
	var cpuPlain, cpuTraced time.Duration
	for _, r := range rs {
		leaves += float64(r.build.leaves) / k
		allocs += float64(r.build.allocs) / k
		allocB += float64(r.build.allocB) / k
		diskB += float64(r.disk.bytes) / k
		cpuPlain += r.cpuPlain
		cpuTraced += r.cpuTraced
	}
	m["tpo.build_alloc_kb"] = allocB / 1024
	m["tpo.build_allocs"] = allocs
	m["tpo.leaves_per_tree"] = leaves
	m["tpo.build_share_of_create"] = buildMS / (total(topLayer+".create") / k)
	m["persist.put_ms_p50"] = q("persist.put", 0.5)
	m["persist.get_ms_p50"] = q("persist.get", 0.5)
	m["persist.bytes_per_session"] = diskB / 1024
	for _, comp := range []string{"http", "service", "session", "selection", "persist"} {
		m["obs."+comp+"_self_ms_per_session"] = (self1[comp] - self0[comp]) * 1000 / k
	}
	m["obs.trace_overhead_ratio"] = ratio(float64(cpuTraced), float64(cpuPlain))

	rows := [][]string{{"layer", "metric", "value", "unit", "should move", "on"}}
	res := &result{
		Correct:   checkErr == nil && replayErr == nil && coverageErr == nil && p.calls.failed == 0,
		Attempted: p.calls.attempted + len(sample),
		Failed:    p.calls.failed + len(sample) - len(rs),
		Metrics:   map[string]metric{},
	}
	for _, lm := range layerMetrics {
		layer, _, _ := strings.Cut(lm.name, ".")
		rows = append(rows, []string{layer, lm.name, fmt.Sprintf("%.6g", m[lm.name]), lm.unit, lm.moves, lm.on})
		res.Metrics[lm.name] = metric{m[lm.name], lm.unit}
	}
	fmt.Fprintf(out, "# per-layer metrics: counters from %d untraced sessions (the hypervisor stole %.1f%% of the CPU time), replays of %d sessions\n",
		len(in.Timed), 100*p.steal, len(sample))
	printTable(out, rows)
	for _, err := range []error{checkErr, replayErr, coverageErr} {
		if err != nil {
			fmt.Fprintf(out, "# output check failed: %v\n", strings.ReplaceAll(err.Error(), "\n", "; "))
		}
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, in.Seed))
	if err := sp.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %d spans written to %s\n", len(sp.list), path)
	return res, nil
}
