package tabletask

// SetWindowPages shrinks (or restores) the fused scan's read window for a
// test and returns the function that puts it back.
func SetWindowPages(n int) (restore func()) {
	old := windowPages
	windowPages = n
	return func() { windowPages = old }
}
