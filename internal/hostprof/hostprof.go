// Package hostprof writes host-side profiles of a command-line run with
// runtime/pprof: a CPU profile over the run and a heap-allocation profile
// at its end, for `go tool pprof`. The commands expose them as -cpuprofile
// and -memprofile.
package hostprof

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, when it is non-empty. The
// returned stop function ends that profile and then writes the
// heap-allocation profile to memPath, when it is non-empty; call it once,
// after the work to be profiled. Errors name the profile they concern.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpuFile); err != nil {
				cpuFile.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeMemProfile(memPath); err != nil {
				errs = append(errs, fmt.Errorf("memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeMemProfile writes the heap-allocation profile, after a GC so the
// in-use figures are current, as `go test -memprofile` does.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
