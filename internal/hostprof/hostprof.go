// Package hostprof writes the host profiles that latbench and campaign
// take on request (-cpuprofile, -memprofile): a CPU profile of the whole
// run and an allocation profile at its end, both as gzipped pprof
// protocol buffers for `go tool pprof`. They measure the Go process,
// not the simulated machine, and go only to the files named, never to
// stdout or a command's results, so a profiled run's output is the
// unprofiled run's byte for byte.
package hostprof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the profile files named by cpuPath and memPath (an
// empty path asks for no profile), begins the CPU profile, and returns
// the function that ends the run's profiling: it stops the CPU profile
// and writes the allocation profile, as `go test -memprofile` does.
// Call it once, however the run ends. Both files are created up front,
// so a path that cannot be written fails Start, before any work runs,
// and leaves no profile running.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("memory profile: %w", err)
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if mem != nil {
			// Collect first, so the profile's in-use figures are current.
			runtime.GC()
			err := pprof.Lookup("allocs").WriteTo(mem, 0)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("memory profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}
