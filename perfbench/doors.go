package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	crowdtopk "crowdtopk"
	"crowdtopk/internal/bridge"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/persist"
	"crowdtopk/internal/server"
	"crowdtopk/internal/service"
	"crowdtopk/sdk"
)

// door is one front door of the system under test. Every method is one
// call a crowd dispatcher would make.
type door interface {
	create(sc *script) (string, error)
	// questions returns the pending questions and the session state.
	questions(id string) ([]pair, string, error)
	answers(id string, as []answer) error
	result(id string) (outcome, error)
	remove(id string) error
	close()
}

// durableDoor is a front door over a data directory that can be closed and
// reopened on it, and whose pending durable writes can be drained.
type durableDoor interface {
	door
	reopen() error
	flush()
}

// outcome is a session's served result.
type outcome struct {
	State   string `json:"state"`
	Ranking []int  `json:"ranking"`
	Asked   int    `json:"asked"`
}

func terminal(state string) bool { return state == "converged" || state == "exhausted" }

// ---- HTTP handler on a loopback socket ----

type httpDoor struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	wire   atomic.Int64 // bytes the client sent and received, headers included
}

func newHTTPDoor(tracer *obs.Tracer) (*httpDoor, error) {
	srv, err := server.New(server.Config{Tracer: tracer})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &httpDoor{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	dialer := &net.Dialer{}
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, n: &d.wire}, nil
		},
	}}
	return d, nil
}

// countingConn counts the bytes crossing a client connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (d *httpDoor) do(method, path string, body []byte, want int, into any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, msg)
	}
	if into == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (d *httpDoor) create(sc *script) (string, error) {
	var info struct {
		ID string `json:"id"`
	}
	if err := d.do("POST", "/v1/sessions", sc.body, http.StatusCreated, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

func (d *httpDoor) questions(id string) ([]pair, string, error) {
	var v struct {
		State     string `json:"state"`
		Questions []pair `json:"questions"`
	}
	err := d.do("GET", "/v1/sessions/"+id+"/questions", nil, http.StatusOK, &v)
	return v.Questions, v.State, err
}

func (d *httpDoor) answers(id string, as []answer) error {
	body, err := json.Marshal(struct {
		Answers []answer `json:"answers"`
	}{as})
	if err != nil {
		return err
	}
	return d.do("POST", "/v1/sessions/"+id+"/answers", body, http.StatusOK, nil)
}

func (d *httpDoor) result(id string) (outcome, error) {
	var o outcome
	err := d.do("GET", "/v1/sessions/"+id+"/result", nil, http.StatusOK, &o)
	return o, err
}

func (d *httpDoor) remove(id string) error {
	return d.do("DELETE", "/v1/sessions/"+id, nil, http.StatusNoContent, nil)
}

func (d *httpDoor) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // idle keep-alive connections only; every call has returned
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// ---- embedded sdk ----

type sdkDoor struct {
	client *sdk.Client
	opts   sdk.Options
	in     *inputs
	closed doorStats // counters of the clients reopen has closed
}

// doorStats are the store counters an sdk client reports, summed over the
// clients a door has opened.
type doorStats struct {
	hydrations, persistErrors, persistRetries uint64
	persist                                   persist.CounterSnapshot
}

func (a doorStats) plus(st sdk.Stats) doorStats {
	a.hydrations += st.Store.HydrationHits
	a.persistErrors += st.Store.PersistErrors
	a.persistRetries += st.Store.PersistRetries
	if p := st.Store.Persist; p != nil {
		a.persist.Snapshots += p.Snapshots
		a.persist.WALAppends += p.WALAppends
		a.persist.Replays += p.Replays
		a.persist.Fsyncs += p.Fsyncs
	}
	return a
}

func (a doorStats) minus(b doorStats) doorStats {
	return doorStats{
		hydrations:     a.hydrations - b.hydrations,
		persistErrors:  a.persistErrors - b.persistErrors,
		persistRetries: a.persistRetries - b.persistRetries,
		persist: persist.CounterSnapshot{
			Snapshots:  a.persist.Snapshots - b.persist.Snapshots,
			WALAppends: a.persist.WALAppends - b.persist.WALAppends,
			Replays:    a.persist.Replays - b.persist.Replays,
			Fsyncs:     a.persist.Fsyncs - b.persist.Fsyncs,
		},
	}
}

// stats sums the counters of every client the door has opened.
func (d *sdkDoor) stats() doorStats { return d.closed.plus(d.client.Stats()) }

func newSDKDoor(in *inputs, dir string) (*sdkDoor, error) {
	d := &sdkDoor{in: in}
	if dir != "" {
		d.opts.Storage = &sdk.Storage{Dir: dir, Fsync: "always"}
	}
	var err error
	d.client, err = sdk.New(d.opts)
	return d, err
}

func (d *sdkDoor) create(sc *script) (string, error) {
	ds, err := d.in.dataset(sc.Dataset)
	if err != nil {
		return "", err
	}
	info, err := d.client.CreateSession(sdk.SessionConfig{
		Dataset:     ds,
		Query:       crowdtopk.Query{K: d.in.Shape.K, Budget: d.in.Shape.Budget, Seed: sc.Seed},
		Reliability: d.in.Shape.Reliability,
	})
	return info.ID, err
}

func (d *sdkDoor) questions(id string) ([]pair, string, error) {
	v, err := d.client.Questions(id, 0)
	qs := make([]pair, len(v.Questions))
	for i, q := range v.Questions {
		qs[i] = pair{q.I, q.J}
	}
	return qs, string(v.State), err
}

func (d *sdkDoor) answers(id string, as []answer) error {
	batch := make([]crowdtopk.Answer, len(as))
	for i, a := range as {
		batch[i] = crowdtopk.Answer{Q: crowdtopk.Question{I: a.I, J: a.J}, Yes: a.Yes}
	}
	_, err := d.client.SubmitAnswers(id, batch...)
	return err
}

func (d *sdkDoor) result(id string) (outcome, error) {
	r, err := d.client.Result(id)
	return outcome{State: string(r.State), Ranking: r.Ranking, Asked: r.Asked}, err
}

func (d *sdkDoor) remove(id string) error { return d.client.Delete(id) }
func (d *sdkDoor) close()                 { d.client.Close() }
func (d *sdkDoor) flush()                 { d.client.Flush() }

func (d *sdkDoor) reopen() error {
	d.client.Close()
	// A closed client still reports the counters of its final drain.
	d.closed = d.closed.plus(d.client.Stats())
	c, err := sdk.New(d.opts)
	if err != nil {
		return err // calls keep failing on the closed client
	}
	d.client = c
	return nil
}

// ---- service core ----

// serviceDoor drives internal/service directly, each call the root span of
// its own trace when a tracer is set. The sdk can carry no tracer, so the
// durable workload's tracing overhead and per-component self time are
// measured through this door.
type serviceDoor struct {
	svc    *service.Service
	tracer *obs.Tracer
	dir    string
	in     *inputs
}

func newServiceDoor(in *inputs, dir string, tracer *obs.Tracer) (*serviceDoor, error) {
	d := &serviceDoor{in: in, dir: dir, tracer: tracer}
	return d, d.open()
}

func (d *serviceDoor) open() error {
	cfg := service.Config{Tracer: d.tracer}
	if d.dir != "" {
		store, err := persist.NewFile(persist.FileOptions{Dir: d.dir, Sync: persist.SyncAlways})
		if err != nil {
			return err
		}
		cfg.Persist = store
	}
	svc, err := service.New(cfg)
	if err != nil {
		return err // calls keep failing on the closed service, if any
	}
	d.svc = svc
	return nil
}

func (d *serviceDoor) span(op string) (context.Context, *obs.Span) {
	return d.tracer.StartRequest(context.Background(), "bench."+op, "")
}

func (d *serviceDoor) create(sc *script) (string, error) {
	ds, err := d.in.dataset(sc.Dataset)
	if err != nil {
		return "", err
	}
	ctx, sp := d.span("create")
	defer sp.End()
	info, err := d.svc.CreateOrRestore(ctx, service.CreateRequest{
		Dists: bridge.DatasetDists(ds), K: d.in.Shape.K, Budget: d.in.Shape.Budget,
		Reliability: d.in.Shape.Reliability, Seed: sc.Seed,
	})
	return info.ID, err
}

func (d *serviceDoor) questions(id string) ([]pair, string, error) {
	ctx, sp := d.span("questions")
	defer sp.End()
	v, err := d.svc.Questions(ctx, id, 0)
	qs := make([]pair, len(v.Questions))
	for i, q := range v.Questions {
		qs[i] = pair{q.I, q.J}
	}
	return qs, string(v.State), err
}

func (d *serviceDoor) answers(id string, as []answer) error {
	ctx, sp := d.span("answers")
	defer sp.End()
	batch := make([]service.Answer, len(as))
	for i, a := range as {
		batch[i] = service.Answer{I: a.I, J: a.J, Yes: a.Yes}
	}
	_, err := d.svc.Answers(ctx, id, batch)
	return err
}

func (d *serviceDoor) result(id string) (outcome, error) {
	ctx, sp := d.span("result")
	defer sp.End()
	r, err := d.svc.Result(ctx, id)
	return outcome{State: string(r.State), Ranking: r.Ranking, Asked: r.Asked}, err
}

func (d *serviceDoor) remove(id string) error {
	ctx, sp := d.span("delete")
	defer sp.End()
	return d.svc.Delete(ctx, id)
}

func (d *serviceDoor) close() { d.svc.Close() }
func (d *serviceDoor) flush() { d.svc.Flush() }

func (d *serviceDoor) reopen() error {
	d.svc.Close()
	return d.open()
}

// dataDir makes a fresh data directory under the build directory of the
// checkout, which is where the benchmark keeps everything it writes.
func dataDir() (string, error) {
	base := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
