//go:build amd64

package nn

// Assembly kernel declarations (simd_amd64.s).

//go:noescape
func dot4asm(w, x0, x1, x2, x3 *float64, n int) (s0, s1, s2, s3 float64)

//go:noescape
func axpyasm(alpha float64, x, y *float64, n int)

//go:noescape
func adamasm(p, grad, m, v *float64, n int, beta1, beta2, lr, eps, b1c, b2c float64)

//go:noescape
func axpbyasm(tau float64, x, y *float64, n int)

//go:noescape
func scaleasm(f float64, x *float64, n int)

func cpuidx(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() (eax, edx uint32)

// useSIMD gates the AVX2+FMA kernels. It requires CPU support for
// AVX2 and FMA plus OS support for saving YMM state (OSXSAVE/XGETBV).
var useSIMD = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidx(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuidx(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}
