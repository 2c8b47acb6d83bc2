package main

import (
	"os"
	"time"
)

// calls is the client's record of the calls it made: latencies by kind, in
// the order the calls were made, plus how many calls were attempted and how
// many failed.
type calls struct {
	create, questions, answers, resume, drain []time.Duration
	attempted, failed                         int
}

// do makes one call, counting it, and records its latency into lat (when
// non-nil) if it succeeds.
func (c *calls) do(lat *[]time.Duration, f func() error) error {
	c.attempted++
	start := time.Now()
	if err := f(); err != nil {
		c.failed++
		return err
	}
	if lat != nil {
		*lat = append(*lat, time.Since(start))
	}
	return nil
}

// sessionResult is what the front door served for one script.
type sessionResult struct {
	outcome
	err error
	end mark // when the session was deleted
}

// mark is a moment of the run: the wall clock and the process CPU time.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func now() mark { return mark{time.Now(), cpuTime()} }

// step makes one questions call and answers whatever it returned. It
// reports how many answers it sent and whether the session is finished.
func step(d door, id string, cr *crowdFor, c *calls, lat *[]time.Duration) (int, bool, error) {
	var qs []pair
	var state string
	if err := c.do(lat, func() (err error) { qs, state, err = d.questions(id); return }); err != nil {
		return 0, true, err
	}
	if terminal(state) || len(qs) == 0 {
		return 0, true, nil
	}
	as := make([]answer, len(qs))
	for i, q := range qs {
		as[i] = cr.answer(q)
	}
	return len(as), false, c.do(&c.answers, func() error { return d.answers(id, as) })
}

// finish reads the session's result and deletes it.
func finish(d door, id string, c *calls) (outcome, error) {
	var o outcome
	if err := c.do(nil, func() (err error) { o, err = d.result(id); return }); err != nil {
		return o, err
	}
	return o, c.do(nil, func() error { return d.remove(id) })
}

// lifecycle plays one short session: create, then questions and answers
// until the session is finished, then result and delete. The first
// questions call after the create is recorded as the resume sample.
func lifecycle(d door, sh shape, sc *script, c *calls) sessionResult {
	cr := newCrowd(sc, sh.Accuracy)
	var id string
	if err := c.do(&c.create, func() (err error) { id, err = d.create(sc); return }); err != nil {
		return sessionResult{err: err, end: now()}
	}
	lat := &c.resume
	for {
		_, done, err := step(d, id, cr, c, lat)
		if err != nil {
			return sessionResult{err: err, end: now()}
		}
		if done {
			break
		}
		lat = &c.questions
	}
	o, err := finish(d, id, c)
	return sessionResult{outcome: o, err: err, end: now()}
}

// runClosed plays scripts through d, one after another, from a single
// client that waits for every reply before its next call.
func runClosed(d door, sh shape, scripts []script) ([]sessionResult, *calls) {
	res := make([]sessionResult, len(scripts))
	c := &calls{}
	for i := range scripts {
		res[i] = lifecycle(d, sh, &scripts[i], c)
	}
	return res, c
}

// runWaves plays scripts through the durable door in waves of wave
// sessions from one client, answering round-robin: one question per
// session per turn. At half budget the door is closed and reopened, so each
// session hydrates once; the first call on each session after that is the
// resume sample. Each wave ends with a flush of the durable writes.
func runWaves(d durableDoor, sh shape, scripts []script, c *calls) []sessionResult {
	res := make([]sessionResult, len(scripts))
	for lo := 0; lo < len(scripts); lo += wave {
		hi := min(lo+wave, len(scripts))
		runWave(d, sh, scripts[lo:hi], res[lo:hi], c)
	}
	return res
}

func runWave(d durableDoor, sh shape, scs []script, res []sessionResult, c *calls) {
	ids := make([]string, len(scs))
	crs := make([]*crowdFor, len(scs))
	answered := make([]int, len(scs))
	done := make([]bool, len(scs))
	for i := range scs {
		crs[i] = newCrowd(&scs[i], sh.Accuracy)
		res[i].err = c.do(&c.create, func() (err error) { ids[i], err = d.create(&scs[i]); return })
		done[i] = res[i].err != nil
	}
	// turn gives every open session one step; it reports whether any
	// session is still open afterwards.
	turn := func(lat *[]time.Duration, until int) bool {
		open := false
		for i := range scs {
			if done[i] || answered[i] >= until {
				continue
			}
			n, fin, err := step(d, ids[i], crs[i], c, lat)
			answered[i] += n
			if err != nil {
				res[i].err = err
			}
			done[i] = fin || err != nil
			open = open || !done[i]
		}
		return open
	}
	for turn(&c.questions, sh.Budget/2) {
	}
	if err := c.do(nil, d.reopen); err != nil {
		for i := range res {
			res[i].err = err
			res[i].end = now()
		}
		return
	}
	if turn(&c.resume, sh.Budget+1) {
		for turn(&c.questions, sh.Budget+1) {
		}
	}
	_ = c.do(&c.drain, func() error { d.flush(); return nil })
	for i := range scs {
		if res[i].err == nil {
			res[i].outcome, res[i].err = finish(d, ids[i], c)
		}
	}
	end := now()
	for i := range res {
		res[i].end = end
	}
}

// setup builds a workload's front door and runs the warm-up wave through
// it: one session per catalog dataset (or sixteen fresh ones). It returns
// the door, the set-up time, and the live heap each open warm-up session
// held. The forced collections that measure the heap are not counted as
// set-up time.
func setup(w workload, in *inputs) (door, time.Duration, float64, error) {
	start := time.Now()
	var d door
	var err error
	if w.durable {
		var dir string
		if dir, err = dataDir(); err != nil {
			return nil, 0, 0, err
		}
		d, err = newSDKDoor(in, dir)
	} else {
		d, err = newHTTPDoor(nil)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	elapsed := time.Since(start)

	before := liveHeap()
	start = time.Now()
	c := &calls{}
	ids := make([]string, len(in.Warmup))
	crs := make([]*crowdFor, len(in.Warmup))
	done := make([]bool, len(in.Warmup))
	fail := func(err error) (door, time.Duration, float64, error) {
		closeDoor(d)
		return nil, 0, 0, err
	}
	for i := range in.Warmup {
		crs[i] = newCrowd(&in.Warmup[i], w.shape.Accuracy)
		if err := c.do(nil, func() (err error) { ids[i], err = d.create(&in.Warmup[i]); return }); err != nil {
			return fail(err)
		}
		_, fin, err := step(d, ids[i], crs[i], c, nil)
		if err != nil {
			return fail(err)
		}
		done[i] = fin
	}
	elapsed += time.Since(start)
	resident := float64(liveHeap()-before) / float64(len(in.Warmup))

	// The short workloads play the warm-up sessions to the end; a durable
	// one would cost a whole wave's budget, so it is dropped after one turn.
	start = time.Now()
	for i := range in.Warmup {
		for !done[i] && !w.durable {
			_, fin, err := step(d, ids[i], crs[i], c, nil)
			if err != nil {
				return fail(err)
			}
			done[i] = fin
		}
		if err := c.do(nil, func() error { return d.remove(ids[i]) }); err != nil {
			return fail(err)
		}
	}
	elapsed += time.Since(start)
	return d, elapsed, resident, nil
}

// closeDoor closes d and removes the data directory a durable door wrote.
func closeDoor(d door) {
	d.close()
	if sd, ok := d.(*sdkDoor); ok && sd.opts.Storage != nil {
		_ = os.RemoveAll(sd.opts.Storage.Dir) // throwaway data under the build directory
	}
	if sd, ok := d.(*serviceDoor); ok && sd.dir != "" {
		_ = os.RemoveAll(sd.dir)
	}
}
