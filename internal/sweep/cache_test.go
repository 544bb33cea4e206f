package sweep

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDiskCacheSweepsStaleTemps: a temp file left by a writer killed more
// than an hour ago is removed when the cache opens; a fresh one, possibly a
// concurrent process's write in flight, is kept.
func TestDiskCacheSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "deadbeef.tmp-123")
	fresh := filepath.Join(dir, "cafef00d.tmp-456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("{partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived cache open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (possible in-flight write) was removed")
	}
}
