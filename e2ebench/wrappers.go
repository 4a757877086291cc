package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"abftckpt/internal/store"
)

// storeCounters accumulates the traffic of one timedStore.
type storeCounters struct {
	getN, getNanos, getBytes atomic.Int64
	putN, putNanos, putBytes atomic.Int64
	batchN                   atomic.Int64
}

// nanos is the total time spent in the store's Get and Put calls.
func (c *storeCounters) nanos() int64 { return c.getNanos.Load() + c.putNanos.Load() }

// timedStore wraps a store.ResultStore and counts and times every call.
// Placed under store.WithChecksum it measures raw store I/O; placed over
// it, the difference to the inner one is the checksum layer's time.
type timedStore struct {
	inner store.ResultStore
	c     *storeCounters
	log   *spanLog
	lane  string // span lane ("" records no spans)
}

func (s *timedStore) span(name string, start int64) {
	if s.lane != "" {
		s.log.add(name, s.lane, start, s.log.now(), 0, nil)
	}
}

func (s *timedStore) Get(key string) ([]byte, error) {
	start := s.log.now()
	t := time.Now()
	v, err := s.inner.Get(key)
	s.c.getNanos.Add(int64(time.Since(t)))
	s.c.getN.Add(1)
	s.c.getBytes.Add(int64(len(v)))
	s.span("store.get", start)
	return v, err
}

func (s *timedStore) Put(key string, value []byte) error {
	start := s.log.now()
	t := time.Now()
	err := s.inner.Put(key, value)
	s.c.putNanos.Add(int64(time.Since(t)))
	s.c.putN.Add(1)
	s.c.putBytes.Add(int64(len(value)))
	s.span("store.put", start)
	return err
}

func (s *timedStore) GetBatch(keys []string) (map[string][]byte, error) {
	start := s.log.now()
	t := time.Now()
	got, err := s.inner.GetBatch(keys)
	s.c.getNanos.Add(int64(time.Since(t)))
	s.c.batchN.Add(1)
	s.c.getN.Add(int64(len(keys)))
	for _, v := range got {
		s.c.getBytes.Add(int64(len(v)))
	}
	s.span("store.get_batch", start)
	return got, err
}

func (s *timedStore) PutBatch(items []store.Item) error {
	start := s.log.now()
	t := time.Now()
	err := s.inner.PutBatch(items)
	s.c.putNanos.Add(int64(time.Since(t)))
	s.c.batchN.Add(1)
	s.c.putN.Add(int64(len(items)))
	for _, it := range items {
		s.c.putBytes.Add(int64(len(it.Value)))
	}
	s.span("store.put_batch", start)
	return err
}

func (s *timedStore) Flush() error { return s.inner.Flush() }
func (s *timedStore) Close() error { return s.inner.Close() }

// httpCounters accumulates the traffic of one timedTransport.
type httpCounters struct {
	requests, nanos, reqBytes, respBytes, non200 atomic.Int64

	mu    sync.Mutex
	calls []interval // per request, on the span log's clock
}

// intervals returns a copy of the per-request intervals.
func (c *httpCounters) intervals() []interval {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]interval(nil), c.calls...)
}

// durationsMS returns the per-request durations.
func (c *httpCounters) durationsMS() []float64 {
	calls := c.intervals()
	out := make([]float64, len(calls))
	for i, iv := range calls {
		out[i] = ms(time.Duration(iv.end - iv.start))
	}
	return out
}

// timedTransport wraps an http.RoundTripper: each request is timed from
// the call until its response body is read to the end or closed, with the
// bytes sent and received and any status other than 200.
type timedTransport struct {
	inner http.RoundTripper
	c     *httpCounters
	log   *spanLog
	lane  string // span lane ("" records no spans)
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.log.now()
	began := time.Now()
	if req.ContentLength > 0 {
		t.c.reqBytes.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.finish(start, began, req.URL.Path, 0)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		t.c.non200.Add(1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, start: start, began: began, path: req.URL.Path, status: resp.StatusCode}
	return resp, nil
}

func (t *timedTransport) finish(start int64, began time.Time, path string, status int) {
	d := time.Since(began)
	t.c.requests.Add(1)
	t.c.nanos.Add(int64(d))
	t.c.mu.Lock()
	t.c.calls = append(t.c.calls, interval{start, start + int64(d)})
	t.c.mu.Unlock()
	if t.lane != "" {
		t.log.add("http "+path, t.lane, start, start+int64(d), 0, map[string]any{"status": status})
	}
}

// timedBody counts response bytes and closes the request's timing at EOF
// or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	t      *timedTransport
	start  int64
	began  time.Time
	path   string
	status int
	once   sync.Once
}

func (b *timedBody) done() {
	b.once.Do(func() { b.t.finish(b.start, b.began, b.path, b.status) })
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.c.respBytes.Add(int64(n))
	if err == io.EOF {
		b.done()
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}
