// Package obs is AQUOMAN's zero-dependency observability layer: a
// metrics registry (counters, gauges, power-of-two histograms — all
// atomic, safe under concurrent queries and distrib workers) and one
// per-query recorder, the Lifecycle, carried on the query's context.
//
// A site instruments itself with one call, r := lc.Begin(state, name...)
// and r.End(): the recorder keeps a timeline with exactly one current
// state, so per-state time is exclusive by construction. A recorder asked
// to Retain keeps the same regions as spans and exports them as Chrome
// trace_event JSON (chrome://tracing, https://ui.perfetto.dev) or a
// human-readable tree; otherwise a region is two clock reads and no
// allocation. The registry renders snapshots as Prometheus text or
// expvar-style JSON and can serve both over HTTP.
//
// A nil *Observer, *Registry or *Lifecycle (and the zero Region it hands
// out) turns every call into a no-op, so instrumented code needs no "is
// observability on?" branches.
package obs

// Observer is the process-wide handle EnableObservability installs: the
// metrics registry every layer binds its counters into. Per-query state
// lives in the query's Lifecycle, never here.
type Observer struct {
	Reg *Registry
}

// New returns an Observer with a fresh registry.
func New() *Observer {
	return &Observer{Reg: NewRegistry()}
}

// Registry returns the observer's registry (nil for a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}
