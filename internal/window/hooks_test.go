package window

// Test hooks.

// Sessions returns the number of sessions in the closed window (the open
// tick's sessions are not yet part of the window).
func (e *Engine) Sessions() int {
	n := 0
	for i := range e.win {
		n += len(e.win[i].lites)
	}
	return n
}
