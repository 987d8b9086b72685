package netclient

// PendingIDs reports how many requests await a response.
func (c *Client) PendingIDs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Delivered reports whether the future's response has arrived, unwaited.
func (f *Future) Delivered() bool { return len(f.ch) == 1 }

// Flush pushes buffered request frames to the wire.
func (c *Client) Flush() error { return c.flushPending() }
