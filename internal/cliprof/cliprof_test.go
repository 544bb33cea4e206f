package cliprof

import (
	"os"
	"path/filepath"
	"testing"
)

// isPprof fails the test unless the file at path is a gzip-compressed
// pprof profile.
func isPprof(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 2 || buf[0] != 0x1f || buf[1] != 0x8b {
		t.Fatalf("%s is not a gzip-compressed pprof file (%d bytes)", filepath.Base(path), len(buf))
	}
}

func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	p := &Profiles{cpuPath: path}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	p.Stop() // idempotent
	isPprof(t, path)
}

func TestMemProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	p := &Profiles{memPath: path}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if p.f != nil {
		t.Fatal("-memprofile alone started a CPU profile")
	}
	p.Stop()
	isPprof(t, path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	p.Stop() // idempotent: nothing is rewritten
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("a second Stop rewrote the allocation profile")
	}
}

func TestUnsetFlagIsInert(t *testing.T) {
	p := &Profiles{}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if p.f != nil {
		t.Fatal("profile started without a path")
	}
	p.Stop()
}
