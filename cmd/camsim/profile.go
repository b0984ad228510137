package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a CPU profile into cpuFile and returns the stop
// function that ends it and writes a heap profile into memFile, the
// `go tool pprof` view of one command's run. An empty name skips that
// profile, so with both empty nothing is written and output is unchanged.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, cpu.Close())
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if memFile != "" {
			err = errors.Join(err, writeHeapProfile(memFile))
		}
		return err
	}, nil
}

// writeHeapProfile writes the heap profile, its live figures as of a
// fresh collection, to name.
func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(f), f.Close())
}
