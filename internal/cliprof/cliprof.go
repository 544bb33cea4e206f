// Package cliprof gives the command-line tools shared -cpuprofile and
// -memprofile flags: a runtime/pprof CPU profile of the whole run and an
// allocation profile written at its end, and no cost at all when the flags
// are unset.
package cliprof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles are the profiles requested on the command line.
type Profiles struct {
	cpuPath, memPath string
	f                *os.File
}

// Flags registers -cpuprofile and -memprofile on the default flag set and
// returns their profiles; call it before flag.Parse.
func Flags() *Profiles {
	p := &Profiles{}
	flag.StringVar(&p.cpuPath, "cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	flag.StringVar(&p.memPath, "memprofile", "", "write a runtime/pprof allocation profile of the run to this file")
	return p
}

// Start begins CPU profiling when -cpuprofile was set and does nothing
// otherwise.
func (p *Profiles) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.f = f
	return nil
}

// Stop flushes and closes a running CPU profile and, when -memprofile was
// set, writes the allocation profile, reporting failures on standard
// error. Only the first call does anything, so every exit path may call it.
func (p *Profiles) Stop() {
	if p.f != nil {
		pprof.StopCPUProfile()
		if err := p.f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		}
		p.f = nil
	}
	if p.memPath != "" {
		if err := writeAllocs(p.memPath); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
		p.memPath = ""
	}
}

// writeAllocs writes the allocation profile the way go test -memprofile
// does: after a collection, so the in-use figures are current.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
