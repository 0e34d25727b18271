//go:build !unix

package kremlin_test

import "time"

var processStart = time.Now()

// threadCPU falls back to wall time where getrusage is unavailable.
func threadCPU() time.Duration { return time.Since(processStart) }
