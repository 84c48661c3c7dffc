package flash

import (
	"context"

	"aquoman/internal/obs"
)

// ReadAtCtx is ReadAt with cooperative cancellation: the read fails with
// ctx's error before touching the device when ctx is already done, and a
// bulk read spanning many pages goes to the device one command queue's
// worth (QueueDepth pages, 1 MB) at a time, checking ctx in between, so a
// cancelled requester stops consuming flash bandwidth within that many
// pages of the cancellation. The chunks are page-aligned, so accounting
// (page counts, sequential streams) is identical to ReadAt for reads that
// complete.
func (f *File) ReadAtCtx(ctx context.Context, p []byte, off int64, who Requester) (int, error) {
	if len(p) == 0 || off < 0 {
		return 0, nil
	}
	// A context that can never cancel normally takes the plain path — but
	// one carrying a query lifecycle must stay on the ctx path so the cache
	// and device can attribute wait states to it.
	if !cancellable(ctx) && obs.LifecycleFrom(ctx) == nil {
		return f.ReadAt(p, off, who)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if f.dev.PageCache() != nil {
		return f.readCached(ctx, p, off, who)
	}
	total := 0
	for len(p) > 0 {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		// End the chunk on a page boundary so a page spanning two chunks is
		// never accounted twice.
		end := (off/PageSize + QueueDepth) * PageSize
		chunk := end - off
		if chunk > int64(len(p)) {
			chunk = int64(len(p))
		}
		n, err := f.readDirect(ctx, p[:chunk], off, who)
		total += n
		if err != nil {
			return total, err
		}
		if int64(n) < chunk {
			break // EOF
		}
		off += chunk
		p = p[chunk:]
	}
	return total, nil
}

// ReadPageCtx is ReadPage with cooperative cancellation (see ReadAtCtx).
func (f *File) ReadPageCtx(ctx context.Context, page int64, who Requester) ([]byte, error) {
	buf := make([]byte, PageSize)
	n, err := f.ReadAtCtx(ctx, buf, page*PageSize, who)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}
