package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
)

// TestOpenTracesServesTree pins the on-disk trace space: an elsqtrace
// recording (<bench>-s<seed>.elt) already in the directory is served under
// its content digest, re-uploading it adds no file, a new upload lands as
// <digest>.elt and is served after a reopen, and the upload check refuses a
// trace pushed under another trace's digest.
func TestOpenTracesServesTree(t *testing.T) {
	cfg := config.Default().WithBudget(1_500, 3_000)
	path, raw, digest := recordTestTrace(t, &cfg, "gzip", 1)
	_, raw2, digest2 := recordTestTrace(t, &cfg, "mcf", 1)
	dir := filepath.Dir(path)
	files := func() int {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(des)
	}

	store, n, err := OpenTraces(dir)
	if err != nil || n != 1 {
		t.Fatalf("OpenTraces: %d traces, %v; want 1", n, err)
	}
	if b, ok := store.Get(digest); !ok || !bytes.Equal(b, raw) {
		t.Fatal("recorded trace not served under its digest")
	}
	if err := store.Put(digest, raw); err != nil || files() != 1 {
		t.Fatalf("re-upload of an indexed trace: %v, %d files", err, files())
	}
	if err := checkTrace(digest, raw2); err == nil {
		t.Error("upload check accepted a trace under another digest")
	}
	if err := store.Put(digest2, raw2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, digest2+traceSuffix)); err != nil {
		t.Fatal(err)
	}
	reopened, n, err := OpenTraces(dir)
	if err != nil || n != 2 {
		t.Fatalf("reopen: %d traces, %v; want 2", n, err)
	}
	if b, ok := reopened.Get(digest2); !ok || !bytes.Equal(b, raw2) {
		t.Error("uploaded trace not served after reopen")
	}
}
