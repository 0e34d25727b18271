//go:build unix

package kremlin_test

import (
	"syscall"
	"time"
)

// processCPU returns the user plus system CPU time the test process has
// used so far, every thread included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
