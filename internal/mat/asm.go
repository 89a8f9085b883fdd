package mat

// useAsm is the one switch for every assembly kernel: the row update and the
// two-column head kernel behind the products, the whitened Mahalanobis
// kernel for stacks built from now on, and nn's Adam kernel. It starts as
// the CPU check (asm_amd64.go; false without assembly) and is a variable so
// tests can hold the kernels to the portable loops on the same machine.
var useAsm = cpuHasAsm

// Vectorized reports whether the assembly kernels are in use.
func Vectorized() bool { return useAsm }

// SetVectorized switches the assembly kernels on (where the CPU has them)
// or off, process-wide, and returns the previous setting. It exists for
// tests that hold a kernel to its Go loop; it must not race with a running
// product. A whitened stack keeps the kernel it was built with.
func SetVectorized(on bool) (was bool) {
	was = useAsm
	useAsm = on && cpuHasAsm
	return was
}
