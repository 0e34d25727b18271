package main

// The host-speed probe. On a shared cloud VM the CPU time of the same work
// moves by ±20% between runs minutes apart, as the host's load changes the
// core's clock and what shares its caches; every workload moves together.
// A run times this fixed kernel before every operation, and the gated
// times are scaled by refProbeMS / (the run's median probe time), so they
// read as if the host ran at the reference speed. The kernel is the
// benchmark's own code: nothing the program does changes its cost.

// refProbeMS is the probe's median CPU time over twenty 30 s suite-hcpa
// runs on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest, Go 1.24,
// linux/amd64. It only sets the scale of the gated times.
const refProbeMS = 3.5

// probeKeys is the probe table's size: ~0.5 MB of map, inside a core's L2.
const probeKeys = 1 << 14

// probeTable is filled once and afterwards only read and updated in place,
// so the probe never allocates.
var probeTable = func() map[uint64]uint64 {
	m := make(map[uint64]uint64, probeKeys)
	for k := uint64(0); k < probeKeys; k++ {
		m[k] = k
	}
	return m
}()

var probeSink uint64

// probe runs the kernel once: hashing, random table access and integer
// arithmetic, like the interpreter's inner loops. It returns its CPU ms.
func probe() float64 {
	t := measure(func() {
		x, acc := uint64(88172645463325252), uint64(0)
		for i := 0; i < 80000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x & (probeKeys - 1)
			probeTable[k] += x
			acc += probeTable[(x>>20)&(probeKeys-1)] * 3
		}
		probeSink = acc
	})
	return t.cpuMS()
}
