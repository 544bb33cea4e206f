package cliprof

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	c := &CPU{path: path}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Stop() // idempotent
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 2 || buf[0] != 0x1f || buf[1] != 0x8b {
		t.Fatalf("profile is not a gzip-compressed pprof file (%d bytes)", len(buf))
	}
}

func TestUnsetFlagIsInert(t *testing.T) {
	c := &CPU{}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if c.f != nil {
		t.Fatal("profile started without a path")
	}
	c.Stop()
}
