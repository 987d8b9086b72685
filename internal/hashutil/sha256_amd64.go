//go:build !purego

package hashutil

// useSHANI is true where the CPU has SHA, SSSE3, SSE4.1 and AVX and the OS
// saves the XMM and YMM registers (XCR0 bits 1 and 2): the features Go's own
// crypto/sha256 asks for before it picks its SHA-NI routine. The check reads
// the hardware directly, through CPUID and XGETBV, so it does not follow the
// GODEBUG cpu.* settings (cpu.sha=off, cpu.avx=off, …) that crypto/sha256
// honours: with one of them set the standard library stops using SHA-NI and
// this package still uses it.
var useSHANI = hasSHANI()

func hasSHANI() bool {
	const (
		ecx1SSSE3   = 1 << 9
		ecx1SSE41   = 1 << 19
		ecx1OSXSAVE = 1 << 27
		ecx1AVX     = 1 << 28
		ebx7SHA     = 1 << 29
		need1       = ecx1SSSE3 | ecx1SSE41 | ecx1OSXSAVE | ecx1AVX
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	if ecx1&need1 != need1 || ebx7&ebx7SHA == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// blockSHANI runs the SHA-256 compression function over every whole 64-byte
// block of p, updating dig in place. It needs useSHANI.
//
//go:noescape
func blockSHANI(dig *[8]uint32, p []byte)
