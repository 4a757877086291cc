package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"abftckpt/internal/scenario"
	"abftckpt/internal/server"
	"abftckpt/internal/store"
)

func prepareCoordQuickstart(cfg *config) (func() (instance, error), error) {
	ref, err := prepareRef(cfg, "quickstart.json")
	if err != nil {
		return nil, err
	}
	return func() (instance, error) {
		in, err := setupCoord(cfg, ref)
		if err != nil {
			return nil, err
		}
		return in, nil
	}, nil
}

// coordCampaign posts a campaign to a coordinator that shards it over
// worker servers, all in this process on loopback. Every operation gets a
// fresh fleet, started outside the operation's time.
type coordCampaign struct {
	cfg    *config
	ref    *campaignRef
	loadMS float64
	client *http.Client // the user's client: submit, poll, fetch
	log    *spanLog
	acc    *layerAcc
}

// fleet is one coordinator with its workers. The workers share the
// coordinator's checksummed memory store through its /v1/store mount.
type fleet struct {
	coord    *server.Server
	servers  []*httptest.Server
	clients  []*http.Client
	local    *storeCounters // the coordinator's raw store (remote traffic included)
	shards   *httpCounters
	remote   *httpCounters
	coordURL string
}

func setupCoord(cfg *config, ref *campaignRef) (*coordCampaign, error) {
	in := &coordCampaign{cfg: cfg, ref: ref, log: newSpanLog(), acc: newLayerAcc(),
		client: &http.Client{Transport: &http.Transport{}, Timeout: time.Minute}}
	t := time.Now()
	if _, err := scenario.Load(bytes.NewReader(ref.src)); err != nil {
		return nil, err
	}
	in.loadMS = ms(time.Since(t))
	if _, _, err := in.iterate(-1, false); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

func (in *coordCampaign) close() { in.client.CloseIdleConnections() }

// startFleet boots a coordinator and cfg.par workers. Traced fleets wrap
// the coordinator's raw store, the shard client and the workers'
// remote-store clients in timing wrappers.
func (in *coordCampaign) startFleet(traced bool) *fleet {
	f := &fleet{local: &storeCounters{}, shards: &httpCounters{}, remote: &httpCounters{}}
	var raw store.ResultStore = store.NewMemory()
	if traced {
		raw = &timedStore{inner: raw, c: f.local, log: in.log, lane: "store"}
	}
	coordTS := httptest.NewUnstartedServer(nil)
	f.coordURL = "http://" + coordTS.Listener.Addr().String()
	client := func(c *httpCounters, name string) *http.Client {
		var rt http.RoundTripper = &http.Transport{}
		if traced {
			rt = &timedTransport{inner: rt, c: c, log: in.log, lane: name}
		}
		hc := &http.Client{Transport: rt, Timeout: time.Minute}
		f.clients = append(f.clients, hc)
		return hc
	}
	var urls []string
	for i := 0; i < in.cfg.par; i++ {
		rs := store.WithChecksum(store.NewRemote(f.coordURL+"/v1/store", client(f.remote, "remote store")))
		w := server.New(server.Config{Cache: scenario.NewCellCacheStore(rs, 0), Workers: in.cfg.par})
		ts := httptest.NewServer(w.Handler())
		f.servers = append(f.servers, ts)
		urls = append(urls, ts.URL)
	}
	f.coord = server.New(server.Config{
		Cache:       scenario.NewCellCacheStore(store.WithChecksum(raw), 0),
		Workers:     in.cfg.par,
		WorkerURLs:  urls,
		ShardClient: client(f.shards, "shards"),
	})
	coordTS.Config.Handler = f.coord.Handler()
	coordTS.Start()
	f.servers = append(f.servers, coordTS)
	return f
}

// stop waits for the coordinator's job goroutines, then shuts the fleet
// down.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f.coord.AwaitIdle(ctx)
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	for _, ts := range f.servers {
		ts.Close()
	}
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	State     string `json:"state"`
	Error     string `json:"error"`
	Artifacts []struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	} `json:"artifacts"`
	Workers []struct {
		Shards int `json:"shards"`
		Cells  int `json:"cells"`
	} `json:"workers"`
}

// pollInterval is how often the user polls the job; it bounds the error
// of the observed completion time.
const pollInterval = 2 * time.Millisecond

// iterate submits the campaign to a fresh fleet, polls the job to done
// and fetches every artifact; the operation's time runs from the submit
// to the last artifact's bytes.
func (in *coordCampaign) iterate(i int, traced bool) (time.Duration, []string, error) {
	f := in.startFleet(traced)
	defer f.stop()
	t := time.Now()
	start := in.log.now()
	resp, err := in.client.Post(f.coordURL+"/v1/campaigns", "application/json", bytes.NewReader(in.ref.src))
	if err != nil {
		return 0, nil, err
	}
	var created struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return 0, nil, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	accepted := in.log.now()
	var st jobStatus
	for {
		if err := in.getJSON(f.coordURL+"/v1/jobs/"+created.ID, &st); err != nil {
			return 0, nil, err
		}
		if st.State == server.StateDone || st.State == server.StateFailed {
			break
		}
		time.Sleep(pollInterval)
	}
	if st.State != server.StateDone {
		return 0, nil, fmt.Errorf("job %s: %s", st.State, st.Error)
	}
	done := in.log.now()
	names := make([]string, 0, len(st.Artifacts))
	csv := make(map[string][]byte, len(st.Artifacts))
	for _, a := range st.Artifacts {
		body, err := in.get(f.coordURL + a.URL)
		if err != nil {
			return 0, nil, err
		}
		names = append(names, a.Name)
		csv[a.Name] = body
	}
	d := time.Since(t)
	fetched := in.log.now()
	if traced {
		in.accumulate(f, st, start, accepted, done, fetched)
	}
	return d, in.ref.check(names, csv), nil
}

func (in *coordCampaign) get(url string) ([]byte, error) {
	resp, err := in.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, err
}

func (in *coordCampaign) getJSON(url string, v any) error {
	body, err := in.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// accumulate folds one traced operation into the per-layer sums: the
// shard round-trips, the workers' remote-store traffic and the
// coordinator's raw store, and the share of the job's time covered by
// shard round-trips.
func (in *coordCampaign) accumulate(f *fleet, st jobStatus, start, accepted, done, fetched int64) {
	a := in.acc
	op := in.log.add("iteration", "run", start, fetched, 0, nil)
	in.log.add("coord.submit", "run", start, accepted, op, nil)
	in.log.add("coord.job", "run", accepted, done, op, nil)
	in.log.add("coord.fetch", "run", done, fetched, op, nil)

	sh := f.shards
	durs := sh.durationsMS()
	a.add("shard.requests", float64(sh.requests.Load()))
	a.add("shard.ms_sum", ms(time.Duration(sh.nanos.Load())))
	a.add("shard.ms_p50", percentile(durs, 0.5))
	a.add("shard.req_bytes", float64(sh.reqBytes.Load()))
	a.add("shard.resp_bytes", float64(sh.respBytes.Load()))
	a.add("shard.non200", float64(sh.non200.Load()))
	for _, w := range st.Workers {
		a.add("_shards", float64(w.Shards))
		a.add("_shard_cells", float64(w.Cells))
	}
	rm := f.remote
	a.add("store.remote_requests", float64(rm.requests.Load()))
	a.add("store.remote_ms", ms(time.Duration(rm.nanos.Load())))
	a.add("store.remote_bytes", float64(rm.reqBytes.Load()+rm.respBytes.Load()))
	addStore(a, f.local)

	// Shard round-trips run concurrently (one per runner worker); their
	// union is the part of the job's time the fleet was computing.
	a.add("_covered_ms", ms(time.Duration(covered(sh.intervals(), accepted, done))))
	a.add("_op_ms", ms(time.Duration(done-accepted)))
	a.n++
}

func (in *coordCampaign) measure(r *report) error {
	measureIterations(in.cfg, r, in.log, in.iterate)
	if !in.cfg.trace {
		return nil
	}
	in.acc.report(r)
	r.values["scenario.load_ms"] = in.loadMS
	return in.log.writeChrome(in.cfg.traceOut)
}
