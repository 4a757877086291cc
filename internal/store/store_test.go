package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// backends enumerates every ResultStore implementation under one
// conformance suite. The factory returns a fresh store and a cleanup.
func backends(t *testing.T) map[string]func(t *testing.T) ResultStore {
	return map[string]func(t *testing.T) ResultStore{
		"memory": func(t *testing.T) ResultStore { return NewMemory() },
		"disk": func(t *testing.T) ResultStore {
			return NewDisk(t.TempDir())
		},
		"remote": func(t *testing.T) ResultStore {
			srv := httptest.NewServer(Handler(NewMemory()))
			t.Cleanup(srv.Close)
			return NewRemote(srv.URL, srv.Client())
		},
		"checksum-disk": func(t *testing.T) ResultStore {
			return WithChecksum(NewDisk(t.TempDir()))
		},
		"checksum-remote": func(t *testing.T) ResultStore {
			srv := httptest.NewServer(Handler(NewMemory()))
			t.Cleanup(srv.Close)
			return WithChecksum(NewRemote(srv.URL, srv.Client()))
		},
	}
}

// key returns a plausible cell hash (the disk layout shards on the first
// two characters, so keys must be at least that long).
func key(i int) string { return fmt.Sprintf("%02x%060d", i%256, i) }

// TestConformance runs every backend through the shared contract:
// round-trip, overwrite idempotence, ErrNotFound, batch get/put with
// missing keys omitted, and value isolation.
func TestConformance(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)

			if _, err := s.Get(key(1)); err != ErrNotFound {
				t.Fatalf("get of missing key: err %v, want ErrNotFound", err)
			}

			want := []byte(`{"v":1,"result":{"waste":0.25}}` + "\n")
			if err := s.Put(key(1), want); err != nil {
				t.Fatalf("put: %v", err)
			}
			got, err := s.Get(key(1))
			if err != nil {
				t.Fatalf("get: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round-trip: got %q want %q", got, want)
			}

			// Overwrites are idempotent (content-addressed values).
			if err := s.Put(key(1), want); err != nil {
				t.Fatalf("overwrite: %v", err)
			}

			// Mutating what Get returned must not corrupt the store.
			got[0] = 'X'
			again, err := s.Get(key(1))
			if err != nil || !bytes.Equal(again, want) {
				t.Fatalf("after caller mutation: %q, %v", again, err)
			}

			// Batch put, then batch get over present and missing keys.
			items := []Item{
				{Key: key(2), Value: []byte("two")},
				{Key: key(3), Value: []byte("three")},
			}
			if err := s.PutBatch(items); err != nil {
				t.Fatalf("put batch: %v", err)
			}
			batch, err := s.GetBatch([]string{key(2), key(99), key(3)})
			if err != nil {
				t.Fatalf("get batch: %v", err)
			}
			if len(batch) != 2 || string(batch[key(2)]) != "two" || string(batch[key(3)]) != "three" {
				t.Fatalf("get batch: %v", batch)
			}
			if _, ok := batch[key(99)]; ok {
				t.Fatal("missing key present in batch result")
			}

			if err := s.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
		})
	}
}

// TestDiskLayoutCompatibility pins the on-disk layout byte for byte: the
// historical cache wrote dir/<hash[:2]>/<hash>.json with the value as the
// exact file contents, and both old->new and new->old reads must work.
func TestDiskLayoutCompatibility(t *testing.T) {
	dir := t.TempDir()
	s := NewDisk(dir)
	h := strings.Repeat("ab", 32)
	val := []byte(`{"v":1}` + "\n")

	// A file written by the pre-store code (plain WriteFile in the sharded
	// path) must be visible through the store.
	legacy := filepath.Join(dir, h[:2], h+".json")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, val, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(h)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("legacy read: %q, %v", got, err)
	}

	// A store write must land in exactly the same path with exactly the
	// value bytes.
	h2 := strings.Repeat("cd", 32)
	if err := s.Put(h2, val); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, h2[:2], h2+".json"))
	if err != nil || !bytes.Equal(data, val) {
		t.Fatalf("layout: %q, %v", data, err)
	}
}

// TestDiskGetBatchReadsWhatItCan: a directory where one entry's file
// should be fails that entry's read, not the batch. Disk.GetBatch and
// POST /get both return the other two entries, and Get still reports the
// unreadable one as an error.
func TestDiskGetBatchReadsWhatItCan(t *testing.T) {
	dir := t.TempDir()
	d := NewDisk(dir)
	keys := []string{key(1), key(2), key(3)}
	if err := d.PutBatch([]Item{{Key: keys[0], Value: []byte("one")}, {Key: keys[2], Value: []byte("three")}}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(d.path(keys[1]), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(keys[1]); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a directory entry: %v, want a read error", err)
	}
	want := map[string][]byte{keys[0]: []byte("one"), keys[2]: []byte("three")}
	got, err := d.GetBatch(keys)
	if err != nil || len(got) != 2 || !bytes.Equal(got[keys[0]], want[keys[0]]) || !bytes.Equal(got[keys[2]], want[keys[2]]) {
		t.Fatalf("GetBatch = %q, %v; want the two readable entries", got, err)
	}

	body, _ := json.Marshal(getRequest{Keys: keys})
	rec := post(Handler(d), "/get", body)
	var resp getResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /get: status %d, body %q", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 2 || resp.Items[0].Key != keys[0] || resp.Items[1].Key != keys[2] ||
		!bytes.Equal(resp.Items[0].Value, want[keys[0]]) || !bytes.Equal(resp.Items[1].Value, want[keys[2]]) {
		t.Fatalf("POST /get items %+v, want the two readable entries in key order", resp.Items)
	}
}

// TestRemoteErrors covers the client's non-2xx and malformed-batch paths.
func TestRemoteErrors(t *testing.T) {
	srv := httptest.NewServer(Handler(NewMemory()))
	defer srv.Close()
	r := NewRemote(srv.URL+"/", srv.Client()) // trailing slash is trimmed

	if err := r.Put("k0", []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if v, err := r.Get("k0"); err != nil || string(v) != "v" {
		t.Fatalf("get: %q, %v", v, err)
	}

	// An empty key in a batch is rejected server-side and surfaces as a
	// client error naming the status.
	if err := r.PutBatch([]Item{{Key: "", Value: []byte("v")}}); err == nil {
		t.Fatal("empty-key batch accepted")
	} else if !strings.Contains(err.Error(), "400") {
		t.Fatalf("error does not carry the status: %v", err)
	}

	// A dead endpoint surfaces as a transport error, not a panic.
	dead := NewRemote("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if _, err := dead.Get("k"); err == nil {
		t.Fatal("get against dead endpoint succeeded")
	}
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHandlerRejectsOversizedBatch pins the serving-side batch cap.
func TestHandlerRejectsOversizedBatch(t *testing.T) {
	srv := httptest.NewServer(Handler(NewMemory()))
	defer srv.Close()
	// The client chunks at MaxBatchItems, so drive the handler directly
	// with one key too many.
	resp, err := srv.Client().Post(srv.URL+"/get", "application/json",
		strings.NewReader(`{"keys":[`+strings.Repeat(`"ab",`, MaxBatchItems)+`"ab"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// outside lists the files under root that are not inside dir.
func outside(t *testing.T, root, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !strings.HasPrefix(p, dir+string(filepath.Separator)) {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// post sends body to one of Handler's endpoints and returns the response.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestKeysCannotEscapeDiskStore pins the store key rule where a key
// becomes a path: a /put or /get naming a parent directory is refused
// with 400, the whole batch with it, and Disk itself refuses the key, so
// nothing is written or read outside the store's directory.
func TestKeysCannotEscapeDiskStore(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "cache")
	secret := filepath.Join(root, "a", "secret.json")
	if err := os.MkdirAll(filepath.Dir(secret), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(secret, []byte(`{"token":"hunter2"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	h := Handler(NewDisk(dir))

	put := post(h, "/put", []byte(`{"items":[{"key":"`+key(1)+`","value":"eA=="},{"key":"../escaped","value":"eA=="}]}`))
	if put.Code != http.StatusBadRequest {
		t.Errorf("put ../escaped: status %d, want 400", put.Code)
	}
	get := post(h, "/get", []byte(`{"keys":["../secret"]}`))
	if get.Code != http.StatusBadRequest || strings.Contains(get.Body.String(), `"items"`) {
		t.Errorf("get ../secret: status %d, body %q; want 400 without the file", get.Code, get.Body)
	}
	if files := outside(t, root, dir); len(files) != 1 || files[0] != secret {
		t.Errorf("files outside the store: %v", files)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a refused batch wrote into the store (stat: %v)", err)
	}

	d := NewDisk(dir)
	for _, k := range []string{"", "../secret", "a/b", "A0", "ab.json", strings.Repeat("a", 129)} {
		if err := d.Put(k, []byte("x")); !errors.Is(err, ErrBadKey) {
			t.Errorf("Disk.Put(%q) = %v, want ErrBadKey", k, err)
		}
		if _, err := d.Get(k); !errors.Is(err, ErrBadKey) {
			t.Errorf("Disk.Get(%q) = %v, want ErrBadKey", k, err)
		}
	}
	for _, k := range []string{key(7), "job-journal", "a", strings.Repeat("z", 128)} {
		if err := checkKey(k); err != nil {
			t.Errorf("checkKey(%q) = %v, want nil", k, err)
		}
	}
}

// FuzzStoreHandler posts arbitrary bodies to Handler's /get and /put over
// a Disk store: the status is always 200, 400 or 413, no file appears
// outside the store's directory, and a 200 put reads back byte-equal
// through /get.
func FuzzStoreHandler(f *testing.F) {
	f.Add(true, []byte(`{"items":[{"key":"ab12","value":"eA=="},{"key":"job-journal","value":""}]}`))
	f.Add(true, []byte(`{"items":[{"key":"../escaped","value":"eA=="}]}`))
	f.Add(true, []byte(`{"items":[{"key":"a","value":"eA=="},{"key":"a","value":"eQ=="}]}`))
	f.Add(false, []byte(`{"keys":["ab12","../secret"]}`))
	f.Add(false, []byte(`{"keys":["ab12"]} trailing`))
	f.Add(false, []byte(`{"keys":null,"extra":1}`))
	f.Fuzz(func(t *testing.T, isPut bool, body []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "a", "b", "cache")
		h := Handler(NewDisk(dir))
		path := "/get"
		if isPut {
			path = "/put"
		}
		rec := post(h, path, body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s: status %d (%s)", path, rec.Code, rec.Body)
		}
		if files := outside(t, root, dir); len(files) != 0 {
			t.Fatalf("%s wrote outside the store: %v", path, files)
		}
		if !isPut || rec.Code != http.StatusOK {
			return
		}
		var req putRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted put does not decode: %v", err)
		}
		want := map[string][]byte{} // the last value of a repeated key wins
		keys := []string{}
		for _, it := range req.Items {
			if _, ok := want[it.Key]; !ok {
				keys = append(keys, it.Key)
			}
			want[it.Key] = it.Value
		}
		getBody, _ := json.Marshal(getRequest{Keys: keys})
		got := post(h, "/get", getBody)
		var resp getResponse
		if got.Code != http.StatusOK || json.Unmarshal(got.Body.Bytes(), &resp) != nil {
			t.Fatalf("read back: status %d (%s)", got.Code, got.Body)
		}
		if len(resp.Items) != len(keys) {
			t.Fatalf("read back %d of %d keys", len(resp.Items), len(keys))
		}
		for _, it := range resp.Items {
			if !bytes.Equal(it.Value, want[it.Key]) {
				t.Fatalf("key %q read back %q, put %q", it.Key, it.Value, want[it.Key])
			}
		}
	})
}
