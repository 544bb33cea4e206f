package blob

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// staleTempAge is how old an orphaned Put temp file must be before open-time
// cleanup removes it. Writes finish in well under a minute, so anything this
// old is the residue of a killed process, not an in-flight Put from a
// concurrent one.
const staleTempAge = time.Hour

// Disk is a Store keeping one file per key, named key+suffix, in one
// directory, so artifacts persist and are shared across processes. Writes
// are atomic (temp file + rename): a concurrent reader sees a whole file or
// none. With a size budget, each Put prunes the oldest files until the
// store fits. Disk is safe for concurrent use, by several processes too.
type Disk struct {
	dir, suffix string
	// MaxBytes bounds the total size of the store's files; <= 0 means
	// unbounded. After each Put, files are removed oldest first (by
	// modification time), never the one just written, until the store
	// fits.
	MaxBytes int64

	pruneMu sync.Mutex
}

// OpenDisk opens (creating if needed) the disk store of suffix files in dir,
// with the given size budget (<= 0 for unbounded). Temp files orphaned by
// killed writers are removed on open; fresh ones, possibly another
// process's write in flight, are left alone.
func OpenDisk(dir, suffix string, maxBytes int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: store dir: %w", err)
	}
	d := &Disk{dir: dir, suffix: suffix, MaxBytes: maxBytes}
	d.sweepStaleTemps()
	return d, nil
}

// sweepStaleTemps removes Put temp files old enough that their writer must
// be dead. Errors are ignored: cleanup is best-effort.
func (d *Disk) sweepStaleTemps() {
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, de := range des {
		name := de.Name()
		if !strings.Contains(name, ".tmp-") || strings.HasSuffix(name, d.suffix) {
			continue
		}
		if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(d.dir, name))
		}
	}
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Path returns the file that holds key.
func (d *Disk) Path(key string) string { return filepath.Join(d.dir, key+d.suffix) }

// checkKey rejects keys that are not plain file names: a key reaches the
// store from a URL path, and must not name a file outside the directory.
func checkKey(key string) error {
	if key == "" || key[0] == '.' || strings.ContainsAny(key, `/\`) {
		return fmt.Errorf("blob: invalid key %q", key)
	}
	return nil
}

// Has reports whether a file exists for key, without reading it.
func (d *Disk) Has(key string) bool {
	info, err := os.Stat(d.Path(key))
	return err == nil && info.Mode().IsRegular()
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, bool) {
	if checkKey(key) != nil {
		return nil, false
	}
	b, err := os.ReadFile(d.Path(key))
	return b, err == nil
}

// Put implements Store: the bytes go to a temp file that is renamed over
// key's file, then the size budget is enforced.
func (d *Disk) Put(key string, b []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	_, werr := tmp.Write(b)
	if err := errors.Join(werr, tmp.Close()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), d.Path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("blob: %w", err)
	}
	d.enforceBudget(key)
	return nil
}

// Entry describes one stored file.
type Entry struct {
	// Key is the content address.
	Key string
	// Size is the file size in bytes.
	Size int64
	// ModTime is the file's modification time.
	ModTime time.Time
}

// Entries lists the store's files, oldest first.
func (d *Disk) Entries() ([]Entry, error) {
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	var out []Entry
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, d.suffix) || de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, Entry{
			Key:     strings.TrimSuffix(name, d.suffix),
			Size:    info.Size(),
			ModTime: info.ModTime(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ModTime.Equal(out[j].ModTime) {
			return out[i].ModTime.Before(out[j].ModTime)
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// TotalBytes sums the store's file sizes.
func (d *Disk) TotalBytes() (int64, error) {
	entries, err := d.Entries()
	return sum(entries), err
}

func sum(entries []Entry) (total int64) {
	for _, e := range entries {
		total += e.Size
	}
	return total
}

// enforceBudget prunes the oldest files, never justWritten's, until the
// store fits MaxBytes.
func (d *Disk) enforceBudget(justWritten string) {
	if d.MaxBytes <= 0 {
		return
	}
	d.pruneMu.Lock()
	defer d.pruneMu.Unlock()
	entries, err := d.Entries()
	if err != nil {
		return
	}
	total := sum(entries)
	for _, e := range entries {
		if total <= d.MaxBytes {
			return
		}
		if e.Key != justWritten && os.Remove(d.Path(e.Key)) == nil {
			total -= e.Size
		}
	}
}
