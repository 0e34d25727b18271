//go:build linux

package kremlin_test

import (
	"syscall"
	"time"
)

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPU returns the user plus system CPU time the calling OS thread has
// used so far. Callers lock the goroutine to its thread around the timed
// span. Unlike process CPU time it leaves out Go's background GC workers,
// which run on other threads only while a core is idle, so it does not
// swing with host load.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
