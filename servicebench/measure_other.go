//go:build !linux

package main

import (
	"errors"
	"time"
)

// The benchmark reads process CPU time and peak RSS through Linux system
// calls; elsewhere it refuses to run rather than report zeros.
func checkClocks() error {
	return errors.New("servicebench: process CPU time and peak RSS need Linux")
}

func processCPU() time.Duration { panic("unreachable: checkClocks fails") }

func peakRSSBytes() int64 { panic("unreachable: checkClocks fails") }
