package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"abftckpt/internal/store"
)

// TestTimedStoreCounts pins the exact counts and bytes of the store
// wrapper, single and batched calls, hits and misses.
func TestTimedStoreCounts(t *testing.T) {
	c := &storeCounters{}
	s := &timedStore{inner: store.NewMemory(), c: c, log: newSpanLog()}
	if err := s.Put("a", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]store.Item{{Key: "b", Value: []byte("xy")}, {Key: "c", Value: []byte("z")}}); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get("a"); err != nil || string(v) != "12345" {
		t.Fatalf("get a: %q %v", v, err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("get missing: %v", err)
	}
	if got, err := s.GetBatch([]string{"b", "c", "nope"}); err != nil || len(got) != 2 {
		t.Fatalf("get batch: %v %v", got, err)
	}
	for name, pair := range map[string][2]int64{
		"getN":     {c.getN.Load(), 5},
		"getBytes": {c.getBytes.Load(), 8},
		"putN":     {c.putN.Load(), 3},
		"putBytes": {c.putBytes.Load(), 8},
		"batchN":   {c.batchN.Load(), 2},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s = %d, want %d", name, pair[0], pair[1])
		}
	}
	if c.getNanos.Load() <= 0 || c.putNanos.Load() <= 0 {
		t.Error("no time recorded")
	}
}

// TestTimedTransportCounts pins the exact request, byte and status
// counts of the transport wrapper, and that a request is timed only once
// however its body is finished.
func TestTimedTransportCounts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/bad" {
			w.WriteHeader(http.StatusTeapot)
		}
		w.Write(append(body, "!!"...)) //nolint:errcheck
	}))
	defer ts.Close()
	c := &httpCounters{}
	client := &http.Client{Transport: &timedTransport{inner: http.DefaultTransport, c: c, log: newSpanLog(), lane: "x"}}
	defer client.CloseIdleConnections()
	for _, tc := range []struct {
		path, body string
		readAll    bool
	}{{"/ok", "hello", true}, {"/bad", "abc", true}, {"/ok", "1234567", false}} {
		resp, err := client.Post(ts.URL+tc.path, "text/plain", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		if tc.readAll {
			io.ReadAll(resp.Body) //nolint:errcheck
		}
		resp.Body.Close()
	}
	if got := c.requests.Load(); got != 3 {
		t.Errorf("requests = %d, want 3", got)
	}
	if got := c.reqBytes.Load(); got != 15 {
		t.Errorf("request bytes = %d, want 15", got)
	}
	if got := c.respBytes.Load(); got != 7+5 {
		t.Errorf("response bytes = %d, want 12 (the unread body counts nothing)", got)
	}
	if got := c.non200.Load(); got != 1 {
		t.Errorf("non-200 = %d, want 1", got)
	}
	if got := len(c.durationsMS()); got != 3 {
		t.Errorf("%d durations, want 3", got)
	}
}
