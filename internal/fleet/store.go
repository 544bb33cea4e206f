package fleet

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/trace"
)

// traceSuffix names the files of an on-disk trace space: <digest>.elt.
const traceSuffix = ".elt"

// checkTrace is the trace space's validity check: b must decode to a
// well-formed trace whose content digest is exactly digest. A corrupted or
// mislabelled trace is rejected, never stored or used.
func checkTrace(digest string, b []byte) error {
	t, err := trace.New(b)
	if err == nil {
		err = t.Verify()
	}
	if err != nil {
		return fmt.Errorf("fleet: trace %s: %w", digest, err)
	}
	if got := t.Meta().Digest; got != digest {
		return fmt.Errorf("fleet: trace claims digest %s but content digests to %s", digest, got)
	}
	return nil
}

// OpenTraces opens the store behind the trace blob space and reports how
// many traces it serves. dir == "" keeps traces in memory. Otherwise the
// directory is created if needed and uploads land in it as <digest>.elt;
// every other .elt file already there that opens as a trace is served
// under its content digest, so elsqserve -tracedir serves an existing
// elsqtrace tree of <bench>-s<seed>.elt files.
func OpenTraces(dir string) (blob.Store, int, error) {
	if dir == "" {
		return blob.NewMem(), 0, nil
	}
	d, err := blob.OpenDisk(dir, traceSuffix, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: trace dir: %w", err)
	}
	entries, err := d.Entries()
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: trace dir: %w", err)
	}
	s := traceDir{Disk: d, alias: make(map[string]string)}
	n := 0
	for _, e := range entries {
		if t, err := trace.Open(d.Path(e.Key)); err == nil {
			n++
			if digest := t.Meta().Digest; digest != e.Key {
				s.alias[digest] = e.Key
			}
		}
	}
	return s, n, nil
}

// traceDir is the on-disk trace store: a blob.Disk of <digest>.elt files,
// plus an index, fixed at open, from content digest to the key of a file
// named otherwise.
type traceDir struct {
	*blob.Disk
	alias map[string]string
}

func (s traceDir) Get(digest string) ([]byte, bool) {
	if key, ok := s.alias[digest]; ok {
		digest = key
	}
	return s.Disk.Get(digest)
}

func (s traceDir) Put(digest string, b []byte) error {
	if _, ok := s.alias[digest]; ok {
		return nil // already served from a file named otherwise
	}
	return s.Disk.Put(digest, b)
}
