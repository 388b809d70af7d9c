//go:build !amd64

package nn

// Non-amd64 builds use the pure-Go kernels in batch.go. useSIMD is a
// var (always false here) so tests that toggle it compile everywhere.
var useSIMD = false

func matmulasm(out *float64, ldo int, x *float64, ldx int, m *float64, ldm int, rows, k, n int) {
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
