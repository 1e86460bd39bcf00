package dram

// A legality assertion in the device model is flagged like any other
// panic: the device does not check the commands it issues.
func mustLegal(ok bool) {
	if !ok {
		panic("dram: illegal command") // want `panic in library code`
	}
}
