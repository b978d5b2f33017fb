//go:build amd64 && !purego

package kernels

// cpuid and xgetbv are the two instructions feature detection needs
// (cpu_amd64.s) — an in-tree stub so go.mod stays dependency-free.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// UseAVX2 selects the SIMD kernels — the two vector kernels here and
// tensor's GEMM kernels. It is decided once, here, from what the CPU and the
// OS report. A variable, and exported, only so the kernel-equivalence tests
// (this package's and tensor's) can run the pure-Go loops on an AVX2
// machine; nothing else sets it.
var UseAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 instructions may run: the CPU implements
// them (CPUID.7.0:EBX bit 5) and the OS saves the YMM state across context
// switches (OSXSAVE, then XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
