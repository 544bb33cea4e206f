// Package cliprof gives the command-line tools a shared -cpuprofile flag: a
// runtime/pprof CPU profile of the whole run, and no cost at all when the
// flag is unset.
package cliprof

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

// CPU is a CPU profile requested on the command line.
type CPU struct {
	path string
	f    *os.File
}

// Flag registers -cpuprofile on the default flag set and returns its
// profile; call it before flag.Parse.
func Flag() *CPU {
	c := &CPU{}
	flag.StringVar(&c.path, "cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	return c
}

// Start begins profiling when -cpuprofile was set and does nothing
// otherwise.
func (c *CPU) Start() error {
	if c.path == "" {
		return nil
	}
	f, err := os.Create(c.path)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	c.f = f
	return nil
}

// Stop flushes and closes a running profile, reporting a failed close on
// standard error. It is a no-op when none is running, so every exit path
// may call it.
func (c *CPU) Stop() {
	if c.f == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := c.f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
	}
	c.f = nil
}
