//go:build unix && !linux

package kremlin_test

import (
	"syscall"
	"time"
)

// threadCPU falls back to the user plus system CPU time of the whole test
// process, every thread included, where per-thread rusage is unavailable.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
