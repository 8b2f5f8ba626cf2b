package monitor

// Rules returns the installed rules in match order, for tests outside the
// package.
func (c *Classifier) Rules() []Rule {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Rule(nil), c.rules...)
}

// SetPollWidth sets the engine tier's width: the most workers one
// execution polls devices on.
func (jm *JobManager) SetPollWidth(n int) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.pollWidth = n
}
