//go:build !amd64

package nn

// Non-amd64 builds use the pure-Go kernels in batch.go. useSIMD is a
// var (always false here) so tests that toggle it compile everywhere.
var useSIMD = false

func dot4asm(w, x0, x1, x2, x3 *float64, n int) (s0, s1, s2, s3 float64) {
	panic("nn: SIMD kernel on non-amd64")
}

func axpyasm(alpha float64, x, y *float64, n int) {
	panic("nn: SIMD kernel on non-amd64")
}

func adamasm(p, grad, m, v *float64, n int, beta1, beta2, lr, eps, b1c, b2c float64) {
	panic("nn: SIMD kernel on non-amd64")
}

func axpbyasm(tau float64, x, y *float64, n int) {
	panic("nn: SIMD kernel on non-amd64")
}

func scaleasm(f float64, x *float64, n int) {
	panic("nn: SIMD kernel on non-amd64")
}
