package catalog

import "context"

type snapKey struct{}

// WithSnapshot pins a snapshot on a context: the run under it scans the
// world as of that epoch and never swaps it for a fresher one. A write's
// victim scan is pinned to the snapshot its commit compares-and-swaps
// against; a query without one takes its own as it starts to run.
func WithSnapshot(ctx context.Context, s Snapshot) context.Context {
	return context.WithValue(ctx, snapKey{}, s)
}

// SnapshotFrom extracts the pinned snapshot, if one was attached.
func SnapshotFrom(ctx context.Context) (Snapshot, bool) {
	if ctx == nil {
		return Snapshot{}, false
	}
	s, ok := ctx.Value(snapKey{}).(Snapshot)
	return s, ok
}
