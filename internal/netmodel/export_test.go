package netmodel

// ComputePath exposes the unmemoized path construction to the external
// test package, as the oracle the memoized CommPath is checked against.
func (p *Platform) ComputePath(a, b int) ([]*Link, float64) { return p.computePath(a, b) }
