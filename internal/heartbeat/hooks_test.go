package heartbeat

// Test hooks.

// Pending reports the number of in-flight sessions.
func (a *Assembler) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}
