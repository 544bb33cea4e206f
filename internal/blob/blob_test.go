package blob_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/cpu"
	"repro/internal/fleet"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// store is one implementation under the conformance suite. open returns the
// store and, for a file-backed one, the directory of its <key>.json files,
// so tests can damage a file in place.
type store struct {
	name string
	open func(t *testing.T) (s blob.Store, dir string)
}

func disk(t *testing.T, maxBytes int64) *blob.Disk {
	t.Helper()
	d, err := blob.OpenDisk(t.TempDir(), ".json", maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// stores lists every implementation. Values are sweep results, so the
// Remote case runs against the result space of a real fleet server, whose
// upload check only admits plausible results.
func stores() []store {
	return []store{
		{"Mem", func(t *testing.T) (blob.Store, string) { return blob.NewMem(), "" }},
		{"Disk", func(t *testing.T) (blob.Store, string) {
			d := disk(t, 0)
			return d, d.Dir()
		}},
		// A one-byte budget: every Put prunes every other file.
		{"DiskBudget", func(t *testing.T) (blob.Store, string) {
			d := disk(t, 1)
			return d, d.Dir()
		}},
		{"Layered(Mem,Disk)", func(t *testing.T) (blob.Store, string) {
			d := disk(t, 0)
			return blob.Layered{Local: blob.NewMem(), Remote: d}, ""
		}},
		{"Remote", func(t *testing.T) (blob.Store, string) {
			srv := httptest.NewServer(fleet.NewServer(fleet.NewCoordinator(fleet.Options{})))
			t.Cleanup(srv.Close)
			c := fleet.NewClient(srv.URL)
			c.Retries = 1
			return c.Blobs(context.Background(), fleet.SpaceResult), ""
		}},
	}
}

// value returns the JSON of a small plausible result, distinct per i.
func value(t testing.TB, i int) []byte {
	t.Helper()
	r := &cpu.Result{
		Bench:     fmt.Sprintf("bench%d", i),
		Committed: uint64(i + 1),
		Cycles:    int64(2 * (i + 1)),
		Counters:  stats.NewCounters(),
		LoadDist:  stats.NewHistogram(30, 4),
		StoreDist: stats.NewHistogram(30, 4),
	}
	r.Counters.Add("cache", uint64(i))
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConformance(t *testing.T) {
	for _, st := range stores() {
		t.Run(st.name, func(t *testing.T) {
			t.Run("Miss", func(t *testing.T) {
				s, _ := st.open(t)
				if _, ok := s.Get("absent"); ok {
					t.Error("empty store returned bytes")
				}
				if _, ok := sweep.Over(s).Get("absent"); ok {
					t.Error("empty store returned a result")
				}
			})

			t.Run("RoundTrip", func(t *testing.T) {
				s, _ := st.open(t)
				for i := range 3 {
					key, v := fmt.Sprintf("k%d", i), value(t, i)
					if err := s.Put(key, v); err != nil {
						t.Fatal(err)
					}
					if got, ok := s.Get(key); !ok || string(got) != string(v) {
						t.Fatalf("%s: got %q, %v", key, got, ok)
					}
					r, ok := sweep.Over(s).Get(key)
					if !ok || r.Bench != fmt.Sprintf("bench%d", i) {
						t.Fatalf("%s: typed get %+v, %v", key, r, ok)
					}
				}
			})

			t.Run("IdempotentRePut", func(t *testing.T) {
				s, _ := st.open(t)
				v := value(t, 7)
				for range 2 {
					if err := s.Put("k", v); err != nil {
						t.Fatal(err)
					}
				}
				if got, ok := s.Get("k"); !ok || string(got) != string(v) {
					t.Fatalf("re-put: got %q, %v", got, ok)
				}
			})

			// Damaged bytes may be stored (Mem, Disk) or refused (the
			// fleet's upload check), but the typed edge never serves them.
			t.Run("CorruptIsTypedMiss", func(t *testing.T) {
				s, dir := st.open(t)
				good := value(t, 1)
				for i, bad := range [][]byte{
					good[:len(good)/2],
					[]byte("not json"),
					[]byte(`{"Bench":"x","Committed":1}`), // parses, implausible
				} {
					key := fmt.Sprintf("bad%d", i)
					_ = s.Put(key, bad)
					if r, ok := sweep.Over(s).Get(key); ok {
						t.Errorf("%s: damaged bytes served as %+v", key, r)
					}
				}
				if dir == "" {
					return
				}
				if err := s.Put("k", good); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "k.json"), good[:len(good)-3], 0o644); err != nil {
					t.Fatal(err)
				}
				if _, ok := sweep.Over(s).Get("k"); ok {
					t.Error("truncated file served as a hit")
				}
			})

			t.Run("Concurrent", func(t *testing.T) {
				s, _ := st.open(t)
				vals := make([][]byte, 4)
				for i := range vals {
					vals[i] = value(t, i)
				}
				var wg sync.WaitGroup
				for g := range 8 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for n := range 6 {
							i := (g + n) % len(vals)
							key := fmt.Sprintf("k%d", i)
							if err := s.Put(key, vals[i]); err != nil {
								t.Error(err)
								return
							}
							// A budget may prune another writer's key,
							// never serve wrong bytes.
							if got, ok := s.Get(fmt.Sprintf("k%d", (i+1)%len(vals))); ok &&
								string(got) != string(vals[(i+1)%len(vals)]) {
								t.Error("concurrent read returned wrong bytes")
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		})
	}
}

// TestDiskBudgetKeepsJustWritten: with a budget smaller than any one file,
// each Put prunes every older file but never the one it just wrote.
func TestDiskBudgetKeepsJustWritten(t *testing.T) {
	d := disk(t, 1)
	for i := range 3 {
		key := fmt.Sprintf("k%d", i)
		if err := d.Put(key, value(t, i)); err != nil {
			t.Fatal(err)
		}
		entries, err := d.Entries()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Key != key {
			t.Fatalf("after putting %s the store holds %+v, want only it", key, entries)
		}
	}
}

// TestDiskRejectsPathKeys: keys arrive from URL paths, and must not name a
// file outside the store's directory.
func TestDiskRejectsPathKeys(t *testing.T) {
	d := disk(t, 0)
	for _, key := range []string{"", "../escape", "a/b", `a\b`, ".hidden"} {
		if err := d.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
		if _, ok := d.Get(key); ok {
			t.Errorf("Get(%q) hit", key)
		}
	}
}

// TestLayeredBackFillsAndWritesThrough: a remote hit is copied into the
// local layer, and a Put reaches both layers.
func TestLayeredBackFillsAndWritesThrough(t *testing.T) {
	local, remote := blob.NewMem(), blob.NewMem()
	l := blob.Layered{Local: local, Remote: remote}
	if err := remote.Put("r", []byte("from remote")); err != nil {
		t.Fatal(err)
	}
	if b, ok := l.Get("r"); !ok || string(b) != "from remote" {
		t.Fatalf("remote hit: %q, %v", b, ok)
	}
	if b, ok := local.Get("r"); !ok || string(b) != "from remote" {
		t.Error("remote hit was not back-filled into the local layer")
	}
	if err := l.Put("w", []byte("written")); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*blob.Mem{"local": local, "remote": remote} {
		if b, ok := s.Get("w"); !ok || string(b) != "written" {
			t.Errorf("Put did not reach the %s layer", name)
		}
	}
}
