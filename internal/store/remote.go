package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Remote protocol: two POST endpoints under a base URL (Handler serves
// them, ftserve mounts it under /v1/store).
//
//	POST {base}/get  {"keys": ["<hash>", ...]}
//	                 -> {"items": [{"key": "...", "value": "<base64>"}]}
//	                 (missing keys omitted)
//	POST {base}/put  {"items": [{"key": "...", "value": "<base64>"}]}
//	                 -> {"stored": N}
//
// The protocol is batch-first: the cell cache reads a shard's cells with
// one GetBatch and writes what a cohort or shard executed with one
// PutBatch, so each is one HTTP round-trip.

// getRequest and putRequest are the wire shapes.
type getRequest struct {
	Keys []string `json:"keys"`
}

type getResponse struct {
	Items []Item `json:"items"`
}

type putRequest struct {
	Items []Item `json:"items"`
}

type putResponse struct {
	Stored int `json:"stored"`
}

// MaxBatchItems bounds one remote batch request (either direction): a
// campaign shard tops out in the hundreds of cells, so the bound only
// guards against runaway or adversarial batches.
const MaxBatchItems = 8192

// maxRemoteBody bounds a decoded request body on the serving side. Cell
// entries run ~1 KB; 64 MiB leaves two orders of magnitude of headroom
// over a full MaxBatchItems batch.
const maxRemoteBody = 64 << 20

// Remote is a ResultStore client over the batch HTTP API.
type Remote struct {
	base   string
	client *http.Client
}

// NewRemote returns a client for the store served at base (e.g.
// "http://host:8080/v1/store"). A nil client uses a default with a 30 s
// timeout.
func NewRemote(base string, client *http.Client) *Remote {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Remote{base: strings.TrimSuffix(base, "/"), client: client}
}

// URL returns the remote store's base URL.
func (s *Remote) URL() string { return s.base }

// roundTrip POSTs a JSON body and decodes a JSON response, surfacing
// non-2xx statuses (with the server's error body) as errors.
func (s *Remote) roundTrip(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("store: remote marshal: %w", err)
	}
	httpResp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("store: remote %s: %w", path, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return fmt.Errorf("store: remote %s: status %d: %s", path, httpResp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
		return fmt.Errorf("store: remote %s: decode: %w", path, err)
	}
	return nil
}

// Get implements ResultStore (a one-key batch get).
func (s *Remote) Get(key string) ([]byte, error) {
	got, err := s.GetBatch([]string{key})
	if err != nil {
		return nil, err
	}
	v, ok := got[key]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// Put implements ResultStore (a one-item batch put).
func (s *Remote) Put(key string, value []byte) error {
	return s.PutBatch([]Item{{Key: key, Value: value}})
}

// GetBatch implements ResultStore.
func (s *Remote) GetBatch(keys []string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for start := 0; start < len(keys); start += MaxBatchItems {
		end := min(start+MaxBatchItems, len(keys))
		var resp getResponse
		if err := s.roundTrip("/get", getRequest{Keys: keys[start:end]}, &resp); err != nil {
			return nil, err
		}
		for _, it := range resp.Items {
			out[it.Key] = it.Value
		}
	}
	return out, nil
}

// PutBatch implements ResultStore.
func (s *Remote) PutBatch(items []Item) error {
	for start := 0; start < len(items); start += MaxBatchItems {
		end := min(start+MaxBatchItems, len(items))
		var resp putResponse
		if err := s.roundTrip("/put", putRequest{Items: items[start:end]}, &resp); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements ResultStore (the client buffers nothing).
func (s *Remote) Flush() error { return nil }

// Close implements ResultStore.
func (s *Remote) Close() error {
	s.client.CloseIdleConnections()
	return nil
}

// Handler serves the batch store protocol over rs. Mount it under the base
// path clients are configured with (ftserve uses /v1/store):
//
//	mux.Handle("/v1/store/", http.StripPrefix("/v1/store", store.Handler(rs)))
//
// A batch with any key that breaks the key rule (ErrBadKey) is refused
// whole with 400.
func Handler(rs ResultStore) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /get", func(w http.ResponseWriter, r *http.Request) {
		var req getRequest
		if !decodeBatch(w, r, &req, func() int { return len(req.Keys) }) {
			return
		}
		for _, k := range req.Keys {
			if err := checkKey(k); err != nil {
				storeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		got, err := rs.GetBatch(req.Keys)
		if err != nil {
			storeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp := getResponse{Items: make([]Item, 0, len(got))}
		// Reply in request-key order so responses are deterministic.
		for _, k := range req.Keys {
			if v, ok := got[k]; ok {
				resp.Items = append(resp.Items, Item{Key: k, Value: v})
				delete(got, k)
			}
		}
		writeStoreJSON(w, resp)
	})
	mux.HandleFunc("POST /put", func(w http.ResponseWriter, r *http.Request) {
		var req putRequest
		if !decodeBatch(w, r, &req, func() int { return len(req.Items) }) {
			return
		}
		for _, it := range req.Items {
			if err := checkKey(it.Key); err != nil {
				storeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		if err := rs.PutBatch(req.Items); err != nil {
			storeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeStoreJSON(w, putResponse{Stored: len(req.Items)})
	})
	return mux
}

// decodeBatch parses a bounded JSON body and enforces the batch-size cap;
// it reports whether the handler should continue.
func decodeBatch(w http.ResponseWriter, r *http.Request, into any, count func() int) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRemoteBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		storeError(w, http.StatusBadRequest, "store: parse batch: %v", err)
		return false
	}
	if n := count(); n > MaxBatchItems {
		storeError(w, http.StatusBadRequest, "store: batch of %d exceeds the %d limit", n, MaxBatchItems)
		return false
	}
	return true
}

func writeStoreJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response writer errors are the client's problem
}

func storeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}
