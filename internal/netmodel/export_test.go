package netmodel

// ComputePath exposes the unmemoized path construction to the external
// test package, as the oracle the memoized CommPath is checked against.
func (p *Platform) ComputePath(a, b int) ([]*Link, float64) { return p.computePath(a, b) }

// The fluid hooks below drive a Fluid directly, with the engine not
// running, as event callbacks would.

// AddFlow starts a flow over the path at once.
func (f *Fluid) AddFlow(path []*Link, bytes float64) {
	f.addFlow(path, bytes, f.engine.NewCondition())
}

// Flows returns the active flows.
func (f *Fluid) Flows() []*Flow { return f.flows }

// Retire removes the flow from the active set.
func (f *Fluid) Retire(fl *Flow) { f.retire(fl) }

// Recompute assigns max-min fair rates to the active flows.
func (f *Fluid) Recompute() { f.recompute() }

// ListedLinks returns the set of finite links the fluid tracks as
// carrying flows.
func (f *Fluid) ListedLinks() []*Link { return f.links }

// Rate returns the flow's current rate in bytes/s.
func (fl *Flow) Rate() float64 { return fl.rate }

// Links returns the flow's path.
func (fl *Flow) Links() []*Link { return fl.links }
