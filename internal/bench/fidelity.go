package bench

// Fidelity control: the harness defaults to full paper fidelity, and
// `go test -short` switches the few training-bound experiments to
// reduced iteration counts so the suite stays fast in CI. Every
// experiment still runs and every shape check is still enforced in
// quick mode; the motor-condition study intentionally keeps full
// fidelity in both modes so one end-to-end training case is always
// exercised unreduced.

// quick selects reduced fidelity. Not safe for concurrent use with
// running experiments; tests set it once up front.
var quick bool

// Quick reports whether reduced-fidelity mode is active.
func Quick() bool { return quick }

// pick returns full normally and short under reduced fidelity.
func pick(full, short int) int {
	if quick {
		return short
	}
	return full
}
