package fixture

// step decrements a counter. The ignore directive below is missing its
// reason, so it is itself reported and suppresses nothing.
func step(n int) int {
	if n < 0 {
		//lint:ignore nopanic
		panic("fixture: negative") // want "steady-state panic in step"
	}
	return n - 1
}

// halt's directive misspells the analyzer name, so it too is reported and
// suppresses nothing.
func halt(n int) {
	if n < 0 {
		//lint:ignore nopanik the name does not match any analyzer
		panic("fixture: halt") // want "steady-state panic in halt"
	}
}
