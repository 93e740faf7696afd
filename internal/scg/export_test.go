package scg

// SetZDDGC flips the implicit phase's mark-sweep collections for a
// test and returns a restore func, so the capped-depth tests can
// contrast the GC ladder against plain cap-and-abort.
func SetZDDGC(on bool) (restore func()) {
	old := zddGC
	zddGC = on
	return func() { zddGC = old }
}

// SetZDDChain selects the implicit phase's node layout for a test and
// returns a restore func: true is the chain-reduced default, false the
// plain reference engine the differential tests compare against.
func SetZDDChain(on bool) (restore func()) {
	old := zddChain
	zddChain = on
	return func() { zddChain = old }
}
