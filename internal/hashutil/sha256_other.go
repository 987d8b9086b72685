//go:build !amd64 || purego

package hashutil

// useSHANI is false off amd64 and under purego: sum always hands its
// preimage to crypto/sha256.
const useSHANI = false

func blockSHANI(dig *[8]uint32, p []byte) { panic("hashutil: no SHA-NI compression on this build") }
