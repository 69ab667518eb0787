package optimizer

// Scratch reports whether o keeps a join-enumeration scratch between
// compilations, and the bytes its chunks hold.
func Scratch(o *Optimizer) (held bool, bytes int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.scratch == nil {
		return false, 0
	}
	return true, o.scratch.size()
}
