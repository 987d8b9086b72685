package core

// ChunkLen reports how many results the chunk a chunked iterator is serving
// from carries.
func ChunkLen(it Iterator) int { return len(it.(*chunkIter).buf) }
