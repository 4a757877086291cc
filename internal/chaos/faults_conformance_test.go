package chaos

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"abftckpt/internal/store"
)

// backends enumerates every ResultStore implementation so the whole
// fleet runs under the chaos wrapper, mirroring the clean conformance
// suite in internal/store.
func backends(t *testing.T) map[string]func(t *testing.T) store.ResultStore {
	return map[string]func(t *testing.T) store.ResultStore{
		"memory": func(t *testing.T) store.ResultStore { return store.NewMemory() },
		"disk": func(t *testing.T) store.ResultStore {
			return store.NewDisk(t.TempDir())
		},
		"remote": func(t *testing.T) store.ResultStore {
			srv := httptest.NewServer(store.Handler(store.NewMemory()))
			t.Cleanup(srv.Close)
			return store.NewRemote(srv.URL, srv.Client())
		},
	}
}

func ckey(i int) string { return fmt.Sprintf("%02x%060d", i%256, i) }

// TestConformanceUnderFaults runs every backend behind the chaos wrapper
// and asserts the contract holds under injected errors: a failed op
// surfaces ErrInjected to its caller and nothing else, successful ops
// behave normally, and faults never corrupt neighboring keys.
func TestConformanceUnderFaults(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			inner := mk(t)
			cs := NewStore(inner, Faults{Seed: 404, ErrRate: 0.3})

			const n = 50
			written := map[string]bool{}
			for i := 0; i < n; i++ {
				k := ckey(i)
				err := cs.Put(k, []byte("value-"+k))
				switch {
				case err == nil:
					written[k] = true
				case errors.Is(err, ErrInjected):
					// An injected failure must not have written through.
				default:
					t.Fatalf("put %s: unexpected error %v", k, err)
				}
			}
			if err := cs.Flush(); err != nil {
				t.Fatal(err)
			}

			var injected int
			for i := 0; i < n; i++ {
				k := ckey(i)
				got, err := cs.Get(k)
				switch {
				case errors.Is(err, ErrInjected):
					injected++
				case written[k] && err == nil:
					if string(got) != "value-"+k {
						t.Fatalf("get %s: neighbor corruption, got %q", k, got)
					}
				case written[k]:
					t.Fatalf("get %s: written key lost: %v", k, err)
				case errors.Is(err, store.ErrNotFound):
					// A key whose Put was injected away is simply absent.
				default:
					t.Fatalf("get %s: written=%v got=%q err=%v", k, written[k], got, err)
				}
			}
			if injected == 0 {
				t.Fatal("no Get faults fired at 30%")
			}
		})
	}
}

// TestChecksumCatchesInjectedCorruption closes the silent-error loop:
// chaos flips bits under the checksum wrapper, and every corrupted read
// surfaces as store.ErrCorrupt — a counted miss — never as wrong bytes.
func TestChecksumCatchesInjectedCorruption(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			faulty := NewStore(mk(t), Faults{Seed: 7, CorruptRate: 0.4})
			cs := store.WithChecksum(faulty)

			const n = 50
			for i := 0; i < n; i++ {
				k := ckey(i)
				if err := cs.Put(k, []byte("payload-"+k)); err != nil {
					t.Fatal(err)
				}
			}
			if err := cs.Flush(); err != nil {
				t.Fatal(err)
			}

			var corrupt int
			for i := 0; i < n; i++ {
				k := ckey(i)
				got, err := cs.Get(k)
				switch {
				case errors.Is(err, store.ErrCorrupt):
					corrupt++
				case err != nil:
					t.Fatalf("get %s: %v", k, err)
				case string(got) != "payload-"+k:
					t.Fatalf("get %s: silent corruption slipped past the checksum: %q", k, got)
				}
			}
			if corrupt == 0 {
				t.Fatal("no corruption fired at 40%")
			}
			if got := faulty.Stats().Corrupted; int(got) != corrupt {
				t.Fatalf("%d reads returned ErrCorrupt, want one per injected flip (%d)", corrupt, got)
			}
		})
	}
}
