package monitor

// Rules returns the installed rules in match order, for tests outside the
// package.
func (c *Classifier) Rules() []Rule {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Rule(nil), c.rules...)
}
