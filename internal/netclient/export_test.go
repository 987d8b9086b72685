package netclient

// PendingIDs reports how many requests await a response.
func (c *Client) PendingIDs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Delivered reports whether the future's response has arrived, unwaited.
func (f *Future) Delivered() bool { return len(f.ch) == 1 }

// Flush puts buffered request frames on their way to the wire: written
// before it returns, or by a flusher already writing.
func (c *Client) Flush() error { return c.flush() }

// Buffered reports how many request bytes are appended but not yet taken
// by a flusher.
func (c *Client) Buffered() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.out)
}
