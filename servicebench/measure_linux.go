package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID from <time.h>: CPU
// time consumed by every thread of the process, at nanosecond resolution.
const clockProcessCPUTimeID = 2

func readProcessCPU() (time.Duration, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("servicebench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

func readPeakRSS() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("servicebench: getrusage: %w", err)
	}
	return ru.Maxrss * 1024, nil // Linux reports kilobytes
}

// checkClocks fails when the process clocks the benchmark reads are
// unavailable; after it succeeds they cannot fail.
func checkClocks() error {
	if _, err := readProcessCPU(); err != nil {
		return err
	}
	_, err := readPeakRSS()
	return err
}

// processCPU returns the CPU time the whole process has used so far.
func processCPU() time.Duration {
	d, err := readProcessCPU()
	if err != nil {
		panic(err) // checkClocks succeeded at start-up
	}
	return d
}

// peakRSSBytes returns the process's peak resident set size.
func peakRSSBytes() int64 {
	n, err := readPeakRSS()
	if err != nil {
		panic(err) // checkClocks succeeded at start-up
	}
	return n
}
